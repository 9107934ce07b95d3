package gt

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// openTestPersistent opens a persistent store over a fresh in-memory
// inner store.
func openTestPersistent(t testing.TB, path string, opt PersistOptions) *Persistent {
	t.Helper()
	p, err := OpenPersistent(path, NewMemory(DefaultConfig()), opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPersistentRecoversFromWALAlone verifies the core WAL property: adds
// are durable the moment Add returns, with no snapshot ever written —
// reopening replays the log on top of an absent snapshot.
func TestPersistentRecoversFromWALAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	var want []Entry
	for i := 0; i < 10; i++ {
		e := gtEntry(i)
		if err := p.Add(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e.clone())
	}
	// No Compact, no Close: simulate a hard crash by just reopening.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("snapshot written without compaction")
	}
	p2 := openTestPersistent(t, path, PersistOptions{})
	defer p2.Close()
	if !reflect.DeepEqual(p2.Entries(), want) {
		t.Fatalf("WAL replay lost entries: got %d, want %d", p2.Info().Entries, len(want))
	}
}

// TestPersistentCompaction verifies the record-count trigger: the WAL
// folds into a snapshot at CompactEvery, the log resets, and recovery
// from snapshot+empty-log equals recovery from log alone.
func TestPersistentCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gt.json")
	p := openTestPersistent(t, path, PersistOptions{CompactEvery: 5})
	for i := 0; i < 12; i++ {
		if err := p.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 12 adds with CompactEvery=5: two compactions, 2 records left.
	if got := p.Info().WALRecords; got != 2 {
		t.Fatalf("WAL holds %d records, want 2", got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	want := p.Entries()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := openTestPersistent(t, path, PersistOptions{CompactEvery: 5})
	defer p2.Close()
	if !reflect.DeepEqual(p2.Entries(), want) {
		t.Fatal("snapshot+WAL recovery diverged from pre-restart state")
	}
	if got := p2.Info().WALRecords; got != 0 {
		t.Fatalf("Close left %d WAL records uncompacted", got)
	}
}

// legacySnapshot is a pre-WAL groundtruth.json as an old deployment left
// it on disk: entries only, no seq, no log beside it.
const legacySnapshot = `{"entries":[` +
	`{"features":[0,0,0,1],"bestSys":{"cores":4,"memoryGB":8},"metric":0.5},` +
	`{"features":[1,1,1,1],"bestSys":{"cores":8,"memoryGB":8},"metric":0.51},` +
	`{"features":[2,2,2,1],"bestSys":{"cores":16,"memoryGB":8},"metric":0.52},` +
	`{"features":[3,3,0,1],"bestSys":{"cores":4,"memoryGB":32},"metric":0.53}]}` + "\n"

// TestPersistentLoadsLegacySnapshot points the persistence layer at a
// pre-WAL groundtruth.json — the migration path. It must load fully and
// then operate normally.
func TestPersistentLoadsLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	if err := os.WriteFile(path, []byte(legacySnapshot), 0o644); err != nil {
		t.Fatal(err)
	}

	p := openTestPersistent(t, path, PersistOptions{CompactEvery: 4})
	defer p.Close()
	want := []Entry{gtEntry(0), gtEntry(1), gtEntry(2), gtEntry(3)}
	if !reflect.DeepEqual(p.Entries(), want) {
		t.Fatalf("legacy snapshot loaded %+v, want %+v", p.Entries(), want)
	}
	// The store keeps working (and WAL-ing) on top of migrated state.
	for i := 4; i < 10; i++ {
		if err := p.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Info().Entries; n != 10 {
		t.Fatalf("adds after migration: len=%d, want 10", n)
	}
}

// TestPersistentSkipsRecordsBelowSnapshotSeq simulates a crash between
// "snapshot renamed" and "WAL reset": the log still holds records the
// snapshot already folded in. Replay must skip them (no duplicates).
func TestPersistentSkipsRecordsBelowSnapshotSeq(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	for i := 0; i < 6; i++ {
		if err := p.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := p.Entries()
	// Write the snapshot by hand at the current watermark, but leave the
	// WAL untouched — exactly the crash window.
	if err := writeFileAtomic(path, func(w io.Writer) error {
		return saveEntries(w, want, 6)
	}); err != nil {
		t.Fatal(err)
	}
	_ = p.wal.close() // drop the handle without compacting

	p2 := openTestPersistent(t, path, PersistOptions{})
	defer p2.Close()
	if n := p2.Info().Entries; n != len(want) {
		t.Fatalf("replay duplicated snapshot records: len=%d, want %d", n, len(want))
	}
	if !reflect.DeepEqual(p2.Entries(), want) {
		t.Fatal("recovered entries diverged")
	}
}

// TestSaveEntriesMatchesStructEncoding pins the streamed snapshot writer
// to the format it replaced, byte for byte: one json.Encoder.Encode of the
// whole snapshot struct — nil, empty and populated databases, with and
// without a sequence watermark.
func TestSaveEntriesMatchesStructEncoding(t *testing.T) {
	populated := make([]Entry, 9)
	for i := range populated {
		populated[i] = gtEntry(i)
	}
	populated[4].Features = nil
	for _, entries := range [][]Entry{nil, {}, populated[:1], populated} {
		for _, seq := range []uint64{0, 1, 1 << 40} {
			var got, want bytes.Buffer
			if err := saveEntries(&got, entries, seq); err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(&want).Encode(snapshot{Entries: entries, Seq: seq}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%d entries, seq %d:\n got %s\nwant %s", len(entries), seq, got.Bytes(), want.Bytes())
			}
		}
	}
}

// TestPersistentCrashSafetyProperty is the crash-safety property test:
// for a WAL-backed store with a known entry sequence, ANY truncation of
// the log tail and ANY single-byte corruption must (a) be detected, (b)
// recover a strict prefix of the original entries, and (c) never lose
// entries covered by the snapshot or the undamaged log prefix.
func TestPersistentCrashSafetyProperty(t *testing.T) {
	const total = 20
	const snapshotAt = 8 // entries folded into the snapshot before damage
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")

	p := openTestPersistent(t, path, PersistOptions{})
	var want []Entry
	for i := 0; i < total; i++ {
		e := gtEntry(i)
		want = append(want, e.clone())
		if err := p.Add(e); err != nil {
			t.Fatal(err)
		}
		if i == snapshotAt-1 {
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = p.wal.close()
	pristineWAL, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	pristineSnap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	restore := func() {
		if err := os.WriteFile(path, pristineSnap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(path), pristineWAL, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, tag string) {
		p2, err := OpenPersistent(path, NewMemory(DefaultConfig()), PersistOptions{})
		if err != nil {
			t.Fatalf("%s: recovery refused: %v", tag, err)
		}
		defer p2.Close()
		got := p2.Entries()
		if len(got) < snapshotAt {
			t.Fatalf("%s: lost snapshot-covered entries: %d < %d", tag, len(got), snapshotAt)
		}
		if len(got) > total {
			t.Fatalf("%s: invented entries: %d > %d", tag, len(got), total)
		}
		if !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("%s: recovered entries are not a prefix of the original", tag)
		}
	}

	rng := rand.New(rand.NewSource(42))
	t.Run("truncation", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			restore()
			cut := rng.Intn(len(pristineWAL) + 1)
			if err := os.Truncate(WALPath(path), int64(cut)); err != nil {
				t.Fatal(err)
			}
			check(t, "truncate")
		}
	})
	t.Run("corruption", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			restore()
			damaged := append([]byte(nil), pristineWAL...)
			pos := rng.Intn(len(damaged))
			damaged[pos] ^= byte(1 + rng.Intn(255))
			if err := os.WriteFile(WALPath(path), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, "corrupt")
		}
	})
	t.Run("missing-wal", func(t *testing.T) {
		restore()
		if err := os.Remove(WALPath(path)); err != nil {
			t.Fatal(err)
		}
		check(t, "missing")
	})
}

// TestPersistentRecoveryTruncatesDamagedTail verifies recovery repairs
// the log: after reopening over a damaged tail, new appends extend the
// valid prefix and a further recovery sees old-prefix + new entries.
func TestPersistentRecoveryTruncatesDamagedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	for i := 0; i < 6; i++ {
		if err := p.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = p.wal.close()
	// Tear the last record in half.
	wal, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(WALPath(path), int64(len(wal)-7)); err != nil {
		t.Fatal(err)
	}

	p2 := openTestPersistent(t, path, PersistOptions{})
	if n := p2.Info().Entries; n != 5 {
		t.Fatalf("recovered %d entries, want 5 (torn 6th dropped)", n)
	}
	if err := p2.Add(gtEntry(100)); err != nil {
		t.Fatal(err)
	}
	_ = p2.wal.close()

	p3 := openTestPersistent(t, path, PersistOptions{})
	defer p3.Close()
	if n := p3.Info().Entries; n != 6 {
		t.Fatalf("appends after repair not recovered: %d, want 6", n)
	}
	got := p3.Entries()
	if got[5].Features[0] != 100 {
		t.Fatal("repaired log lost the post-recovery append")
	}
}

// TestOpenPersistentKeepsPrewarmedInnerOnFirstBoot verifies first-boot
// semantics with a warm store: no snapshot on disk must not wipe the
// entries the caller already loaded (e.g. Bootstrap before service
// start).
func TestOpenPersistentKeepsPrewarmedInnerOnFirstBoot(t *testing.T) {
	inner := NewMemory(DefaultConfig())
	for i := 0; i < 5; i++ {
		if err := inner.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := OpenPersistent(filepath.Join(t.TempDir(), "gt.json"), inner, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if n := p.Info().Entries; n != 5 {
		t.Fatalf("first boot wiped the pre-warmed store: %d entries, want 5", n)
	}
}

// TestPersistentAddAllBatches verifies the bulk path: one AddAll lands
// every entry, the records replay after a crash, and the WAL holds one
// record per entry (framed in a single write).
func TestPersistentAddAllBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	batch := make([]Entry, 12)
	for i := range batch {
		batch[i] = gtEntry(i)
	}
	n, err := p.AddAll(batch)
	if err != nil || n != 12 {
		t.Fatalf("AddAll = (%d, %v), want (12, nil)", n, err)
	}
	if got := p.Info().WALRecords; got != 12 {
		t.Fatalf("WAL holds %d records, want 12", got)
	}
	_ = p.wal.close() // crash, no compaction
	p2 := openTestPersistent(t, path, PersistOptions{})
	defer p2.Close()
	if !reflect.DeepEqual(p2.Entries(), p.Entries()) {
		t.Fatal("batched records did not replay")
	}
}

// walSeedLog returns the bytes a log holds after one appendBatch of recs.
func walSeedLog(f *testing.F, recs []walRecord) []byte {
	path := filepath.Join(f.TempDir(), "seed.wal")
	w, _, _, err := openWAL(path, 0, func(walRecord) error { return nil })
	if err != nil {
		f.Fatal(err)
	}
	if err := w.appendBatch(recs); err != nil {
		f.Fatal(err)
	}
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return log
}

// FuzzWALReplay feeds arbitrary bytes to recovery as <snapshot>.wal, with
// no snapshot beside it. OpenPersistent must never panic; when it opens,
// Close (which compacts the log into a snapshot) followed by a reopen
// must give the same entries.
func FuzzWALReplay(f *testing.F) {
	recs := make([]walRecord, 4)
	for i := range recs {
		recs[i] = walRecord{Seq: uint64(i + 1), Entry: gtEntry(i)}
	}
	log := walSeedLog(f, recs)
	first := len(walMagic) // offset of the first frame
	f.Add(log)
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add([]byte(walMagic[:5]))
	for _, cut := range []int{first + 3, first + 8 + 5, len(log) - 7, len(log) - 1} {
		f.Add(append([]byte(nil), log[:cut]...)) // torn header, torn payload, torn tail
	}
	for _, at := range []int{0, first, first + 4, first + 10, len(log) - 3} {
		flipped := append([]byte(nil), log...)
		flipped[at] ^= 0x40 // magic, length, checksum, payload
		f.Add(flipped)
	}
	// Frames that pass the checksum but not the store: a narrower entry
	// after wider ones, an invalid configuration, and sequence numbers out
	// of order.
	narrow := gtEntry(9)
	narrow.Features = narrow.Features[:2]
	bad := gtEntry(10)
	bad.BestSys.Cores = 0
	f.Add(walSeedLog(f, append(recs[:2:2], walRecord{Seq: 3, Entry: narrow})))
	f.Add(walSeedLog(f, []walRecord{{Seq: 1, Entry: bad}}))
	f.Add(walSeedLog(f, []walRecord{recs[3], recs[0], recs[3]}))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "gt.json")
		if err := os.WriteFile(WALPath(path), data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := OpenPersistent(path, NewMemory(DefaultConfig()), PersistOptions{})
		if err != nil {
			return
		}
		want := p.Entries()
		if err := p.Close(); err != nil {
			t.Fatalf("close after a successful open: %v", err)
		}
		again, err := OpenPersistent(path, NewMemory(DefaultConfig()), PersistOptions{})
		if err != nil {
			t.Fatalf("reopen after close: %v", err)
		}
		defer again.Close()
		if got := again.Entries(); (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen gave %d entries %v, want %d %v", len(got), got, len(want), want)
		}
	})
}
