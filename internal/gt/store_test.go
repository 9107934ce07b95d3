package gt

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"pipetune/internal/params"
)

func TestStoreMissesWhenEmpty(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if _, ok := s.Lookup(featuresOf(t, lenetMNIST, 1)); ok {
			t.Fatal("empty database returned a hit")
		}
		if info := s.Info(); info.Hits != 0 || info.Misses != 1 {
			t.Fatalf("stats = %d/%d, want 0/1", info.Hits, info.Misses)
		}
	})
}

func TestStoreHitAfterSimilarEntries(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		best := params.SysConfig{Cores: 4, MemoryGB: 8}
		// Populate with two families so k=2 clustering is meaningful.
		for i := 0; i < 4; i++ {
			if err := s.Add(Entry{Features: featuresOf(t, lenetMNIST, uint64(i)), BestSys: best, Metric: 100}); err != nil {
				t.Fatal(err)
			}
			if err := s.Add(Entry{Features: featuresOf(t, cnnNews, uint64(i)), BestSys: params.SysConfig{Cores: 8, MemoryGB: 32}, Metric: 200}); err != nil {
				t.Fatal(err)
			}
		}
		cfg, ok := s.Lookup(featuresOf(t, lenetMNIST, 99))
		if !ok {
			t.Fatal("similar profile missed")
		}
		if cfg != best {
			t.Fatalf("hit returned %v, want %v", cfg, best)
		}
		// The other family resolves to its own configuration.
		cfg2, ok := s.Lookup(featuresOf(t, cnnNews, 99))
		if !ok {
			t.Fatal("second family missed")
		}
		if cfg2 == best {
			t.Fatal("families not separated")
		}
	})
}

func TestStoreAddValidation(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if err := s.Add(Entry{Features: nil, BestSys: params.DefaultSysConfig()}); err == nil {
			t.Fatal("featureless entry accepted")
		}
		if err := s.Add(Entry{Features: []float64{1}, BestSys: params.SysConfig{}}); err == nil {
			t.Fatal("invalid config accepted")
		}
		if info := s.Info(); info.Entries != 0 || info.Rev != 0 {
			t.Fatalf("rejected entries mutated the store: len=%d rev=%d", info.Entries, info.Rev)
		}
	})
}

// TestEntryOfAnotherWidthIsRejected holds the store to one feature width:
// an entry of another width, or one holding NaN or ±Inf, is refused by
// Add, Replace and a snapshot load alike, and the store goes on
// answering. Accepted, one odd entry would leave every lookup a distance
// the store cannot measure.
func TestEntryOfAnotherWidthIsRejected(t *testing.T) {
	s := NewMemory(DefaultConfig())
	for i := 0; i < 20; i++ {
		if err := s.Add(wideEntry(i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	query := wideFeatures(0, 99)
	want, ok := s.Lookup(query)
	if !ok {
		t.Fatal("the 58-wide store missed before the odd entry")
	}
	odd := []Entry{
		{Features: []float64{1, 2, 3}, BestSys: params.DefaultSysConfig()},
		{Features: append(wideFeatures(0, 1)[:57], math.NaN()), BestSys: params.DefaultSysConfig()},
		{Features: append(wideFeatures(0, 1)[:57], math.Inf(-1)), BestSys: params.DefaultSysConfig()},
		{Features: wideFeatures(0, 1), BestSys: params.DefaultSysConfig(), Metric: math.Inf(1)},
	}
	for _, e := range odd {
		if err := s.Add(e); err == nil {
			t.Fatalf("Add accepted %d features ending %v, metric %v", len(e.Features), e.Features[len(e.Features)-1], e.Metric)
		}
	}
	if got, ok := s.Lookup(query); !ok || got != want {
		t.Fatalf("after the refused adds: (%v, %v), want (%v, true)", got, ok, want)
	}
	if n := s.Info().Entries; n != 20 {
		t.Fatalf("refused adds left %d entries, want 20", n)
	}

	mixed := append(s.Entries(), odd[0])
	if err := s.Replace(mixed); err == nil || !strings.Contains(err.Error(), "entry 20") {
		t.Fatalf("Replace of a mixed batch = %v, want an error naming entry 20", err)
	}
	var buf bytes.Buffer
	if err := saveEntries(&buf, mixed, 0); err != nil {
		t.Fatal(err)
	}
	if err := loadInto(&buf, s); err == nil {
		t.Fatal("a snapshot of mixed widths loaded")
	}
	if err := Validate(s, odd[:1]); err == nil || !strings.Contains(err.Error(), "entry 0") {
		t.Fatalf("Validate against the 58-wide store = %v, want an error naming entry 0", err)
	}
	if got, ok := s.Lookup(query); !ok || got != want || s.Info().Entries != 20 {
		t.Fatalf("after the refused Replace and load: (%v, %v), %d entries", got, ok, s.Info().Entries)
	}
}

// loadInto restores a Save stream into s the way OpenPersistent restores
// its snapshot: decode, then one Replace.
func loadInto(r io.Reader, s Store) error {
	snap, err := loadSnapshot(r)
	if err != nil {
		return err
	}
	return s.Replace(snap.Entries)
}

func TestStoreSaveLoad(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		for i := 0; i < 4; i++ {
			_ = s.Add(Entry{Features: featuresOf(t, lenetMNIST, uint64(i)), BestSys: params.SysConfig{Cores: 4, MemoryGB: 8}, Metric: 1})
			_ = s.Add(Entry{Features: featuresOf(t, cnnNews, uint64(i)), BestSys: params.SysConfig{Cores: 16, MemoryGB: 32}, Metric: 1})
		}
		var buf bytes.Buffer
		if err := Save(&buf, s); err != nil {
			t.Fatal(err)
		}
		restored := NewMemory(DefaultConfig())
		if err := loadInto(&buf, restored); err != nil {
			t.Fatal(err)
		}
		if got, want := restored.Info().Entries, s.Info().Entries; got != want {
			t.Fatalf("restored %d entries, want %d", got, want)
		}
		if !reflect.DeepEqual(restored.Entries(), s.Entries()) {
			t.Fatal("restored entries differ (or lost insertion order)")
		}
		// A warm-started database must serve hits immediately (§5.4).
		if _, ok := restored.Lookup(featuresOf(t, lenetMNIST, 50)); !ok {
			t.Fatal("warm-started database missed")
		}
		if err := loadInto(bytes.NewBufferString("junk"), restored); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

// TestStoreLoadLegacyFormat feeds the store a pre-WAL snapshot (entries
// only, no seq field): migration requires it to load unchanged.
func TestStoreLoadLegacyFormat(t *testing.T) {
	legacy := `{"entries":[` +
		`{"features":[1,2,3],"bestSys":{"cores":4,"memoryGB":8},"metric":0.9},` +
		`{"features":[10,20,30],"bestSys":{"cores":16,"memoryGB":32},"metric":0.7}]}` + "\n"
	eachStore(t, func(t *testing.T, s Store) {
		if err := loadInto(strings.NewReader(legacy), s); err != nil {
			t.Fatalf("legacy snapshot rejected: %v", err)
		}
		if n := s.Info().Entries; n != 2 {
			t.Fatalf("legacy snapshot loaded %d entries, want 2", n)
		}
		got := s.Entries()
		if got[0].Metric != 0.9 || got[1].BestSys != (params.SysConfig{Cores: 16, MemoryGB: 32}) {
			t.Fatalf("legacy entries mangled: %+v", got)
		}
	})
}

// TestStoreSaveIsLegacyCompatible pins the Save wire format: no seq field
// leaks into plain snapshots, so files written today stay loadable by any
// legacy-format reader.
func TestStoreSaveIsLegacyCompatible(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if err := s.Add(gtEntry(1)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, s); err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		if _, ok := raw["seq"]; ok {
			t.Fatal("plain Save leaked the WAL seq field")
		}
		if _, ok := raw["entries"]; !ok {
			t.Fatal("snapshot missing entries")
		}
	})
}

func TestStoreRev(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		rev := func() uint64 { return s.Info().Rev }
		if rev() != 0 {
			t.Fatalf("fresh rev = %d", rev())
		}
		for i := 1; i <= 3; i++ {
			if err := s.Add(gtEntry(i)); err != nil {
				t.Fatal(err)
			}
			if rev() != uint64(i) {
				t.Fatalf("rev after %d adds = %d", i, rev())
			}
		}
		var buf strings.Builder
		if err := Save(&buf, s); err != nil {
			t.Fatal(err)
		}
		if rev() != 3 {
			t.Errorf("Save mutated rev to %d", rev())
		}
		before := rev()
		if err := loadInto(strings.NewReader(buf.String()), s); err != nil {
			t.Fatal(err)
		}
		if rev() <= before {
			t.Errorf("rev after a load = %d, want > %d", rev(), before)
		}
	})
}
