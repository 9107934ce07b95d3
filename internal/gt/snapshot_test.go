package gt

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestStoreConcurrentAddSaveLoad hammers one database from many
// goroutines — adders (concurrent jobs feeding trials), lookups and
// snapshotters — then verifies a final Save/Load round-trip reproduces
// the entries exactly.
func TestStoreConcurrentAddSaveLoad(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		const (
			adders   = 8
			perAdder = 25
		)
		var wg sync.WaitGroup
		for a := 0; a < adders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < perAdder; i++ {
					if err := s.Add(gtEntry(a*perAdder + i)); err != nil {
						t.Errorf("Add: %v", err)
						return
					}
					// Interleave the operations concurrent jobs perform.
					s.Lookup([]float64{float64(i), 1, 2, 3})
					if i%5 == 0 {
						if err := Save(io.Discard, s); err != nil {
							t.Errorf("Save: %v", err)
							return
						}
					}
				}
			}(a)
		}
		wg.Wait()
		if got := s.Info().Entries; got != adders*perAdder {
			t.Fatalf("lost entries under concurrency: %d, want %d", got, adders*perAdder)
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
			t.Fatalf("round-trip lost entries: %d, want %d", got, want)
		}
		if !reflect.DeepEqual(restored.Entries(), s.Entries()) {
			t.Error("restored database differs from the original")
		}
	})
}

// TestSnapshotNeverHalfWritten verifies the write-to-temp + rename
// protocol: while a writer compacts a growing database on every Add,
// every read of the snapshot path parses as complete JSON — a reader can
// never observe a partially written snapshot.
func TestSnapshotNeverHalfWritten(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	p := openTestPersistent(t, path, PersistOptions{CompactEvery: 1})
	defer p.Close()
	if err := p.Add(gtEntry(0)); err != nil { // the first compaction creates the file
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: grow + compact in a tight loop
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.Add(gtEntry(i)); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		var snap struct {
			Entries []Entry `json:"entries"`
		}
		if err := json.Unmarshal(buf, &snap); err != nil {
			t.Fatalf("read %d observed a half-written snapshot: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// The temp files of completed snapshots must all be gone.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("leftover temp files after snapshots: %v", matches)
	}
}

// TestSaveFileFailureLeavesTargetIntact fails an atomic write two ways —
// the encoder errors after emitting half a snapshot, and the target
// directory does not exist — and checks the existing snapshot is
// untouched and no temp file is left behind.
func TestSaveFileFailureLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	if err := p.Add(gtEntry(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // the final compaction writes path
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	failed := errors.New("encoder failed")
	err = writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(before[:len(before)/2]); err != nil {
			return err
		}
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failing write returned %v", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, "missing", "gt.json"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("atomic write into a missing directory succeeded")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("failed write disturbed the existing snapshot")
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("failed write left temp files behind: %v", matches)
	}
}

// TestLoadFileMissing verifies first-boot semantics: a missing snapshot
// (and log) is not an error and leaves the database empty.
func TestLoadFileMissing(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		p, err := OpenPersistent(filepath.Join(t.TempDir(), "absent.json"), s, PersistOptions{})
		if err != nil {
			t.Fatalf("missing snapshot: %v", err)
		}
		defer p.Close()
		if n := p.Info().Entries; n != 0 {
			t.Fatalf("empty boot has %d entries", n)
		}
	})
}

// FuzzGTLoad feeds the daemon's snapshot decode path (loadInto, what
// OpenPersistent runs on the -gt file) bytes it did not write, into a
// fresh store, then looks up one profile: it must load or return an
// error, and never panic. Seeds: a legacy snapshot, an empty document,
// an entry of another width and a seq-bearing snapshot.
func FuzzGTLoad(f *testing.F) {
	f.Add([]byte(`{"entries":[{"features":[1,2,3],"bestSys":{"cores":4,"memoryGB":8},"metric":0.9},` +
		`{"features":[10,20,30],"bestSys":{"cores":16,"memoryGB":32},"metric":0.7}]}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"entries":[{"features":[1,2,3],"bestSys":{"cores":4,"memoryGB":8},"metric":0.9},` +
		`{"features":[1,2],"bestSys":{"cores":4,"memoryGB":8},"metric":0.9}]}`))
	var seq bytes.Buffer
	entries := make([]Entry, 12)
	for i := range entries {
		entries[i] = gtEntry(i)
	}
	if err := saveEntries(&seq, entries, 7); err != nil {
		f.Fatal(err)
	}
	f.Add(seq.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewMemory(DefaultConfig())
		if err := loadInto(bytes.NewReader(data), s); err != nil {
			return
		}
		query := []float64{1, 2, 3}
		if loaded := s.Entries(); len(loaded) > 0 {
			query = loaded[0].Features
		}
		s.Lookup(query)
	})
}
