package gt

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"pipetune/internal/metrics"
	"pipetune/internal/params"
)

// PersistOptions tunes the persistence layer.
type PersistOptions struct {
	// CompactEvery folds the WAL into a fresh snapshot once it holds this
	// many records (<= 0 means no record-count trigger; compaction then
	// only happens through explicit Compact calls). Compaction bounds both
	// recovery time and log size.
	CompactEvery int
	// Logf receives operational log lines (nil = silent) — e.g. recovered
	// entry counts and damaged-tail reports.
	Logf func(format string, args ...any)
}

// Persistent wraps any Store with durable state: an append-only
// write-ahead log records every Add as it happens, and a compacted
// snapshot (the same JSON format Save writes — so legacy
// groundtruth.json files load unchanged) is rewritten atomically when the
// log grows past PersistOptions.CompactEvery, on explicit Compact calls
// and at Close.
//
// Recovery (OpenPersistent) loads the snapshot, replays the log's records
// with sequence numbers beyond the snapshot watermark, and — when the log
// tail is torn or corrupted — truncates the damage, keeping the snapshot
// plus the valid log prefix. Crash-safety invariant: snapshot + replay
// ≡ the in-memory state at the moment of the last synced append.
//
// Lookup and every other read passes straight through to the inner store —
// persistence adds no cost to the epoch hot path; only Add pays one framed
// append + fsync.
type Persistent struct {
	inner Store
	path  string // snapshot path; the WAL lives at path + ".wal"
	opt   PersistOptions

	mu         sync.Mutex // serialises Add/Replace/Compact/Close
	wal        *wal
	nextSeq    uint64 // sequence of the next WAL record
	compactRev uint64 // inner.Info().Rev at the last compaction
	closed     bool
	met        *walInstruments
}

// InstrumentMetrics implements Instrumentable: the wrapper reports the
// durability layer (fsyncs, compactions) and forwards to the inner
// store for lookup/add series.
func (p *Persistent) InstrumentMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p.mu.Lock()
	p.met = newWALInstruments(reg)
	p.mu.Unlock()
	if in, ok := p.inner.(Instrumentable); ok {
		in.InstrumentMetrics(reg)
	}
}

// appendWAL wraps one framed log append (p.wal.append or appendBatch
// both end in exactly one fsync) with the durability instruments.
// Callers hold p.mu.
func (p *Persistent) appendWAL(op func() error) error {
	if p.met == nil {
		return op()
	}
	start := time.Now()
	err := op()
	p.met.fsyncSeconds.Observe(time.Since(start).Seconds())
	if err == nil {
		p.met.fsyncs.Inc()
	}
	return err
}

// WALPath derives the log path from a snapshot path.
func WALPath(snapshotPath string) string { return snapshotPath + ".wal" }

// OpenPersistent restores durable state from path (snapshot) and
// path+".wal" (log) into inner and returns the wrapped store. An
// existing snapshot is authoritative and replaces whatever inner held;
// with no snapshot (first boot) inner keeps its state — possibly
// pre-warmed by the caller — and the log, if any, replays on top.
func OpenPersistent(path string, inner Store, opt PersistOptions) (*Persistent, error) {
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	p := &Persistent{inner: inner, path: path, opt: opt}

	snapEntries := []Entry(nil)
	var snapSeq uint64
	snapshotExists := false
	if f, err := os.Open(path); err == nil {
		snap, derr := loadSnapshot(f)
		f.Close()
		if derr != nil {
			return nil, derr
		}
		snapEntries = snap.Entries
		snapSeq = snap.Seq
		snapshotExists = true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("gt: open snapshot: %w", err)
	}
	// Base state: an existing snapshot is authoritative; on first boot
	// (no snapshot) inner keeps its state — a caller may hand over a
	// pre-warmed store. Legacy snapshots predate sequence numbers; they
	// also predate the WAL, so every log record (if one even exists) is
	// newer than them.
	base := snapEntries
	if !snapshotExists {
		base = inner.Entries()
	}

	// Collect the log's records first and fold base+replay into ONE
	// Replace, so the inner store rebuilds its layout once instead of
	// once per replayed record.
	width := 0
	if len(base) > 0 {
		width = len(base[0].Features)
	}
	var replayed []Entry
	w, lastSeq, tailErr, err := openWAL(WALPath(path), snapSeq, width, func(rec walRecord) {
		replayed = append(replayed, rec.Entry)
	})
	if err != nil {
		return nil, err
	}
	if tailErr != nil {
		opt.Logf("gt: recovered with damaged WAL tail (%v); kept snapshot + %d replayed records", tailErr, len(replayed))
	}
	if snapshotExists || len(replayed) > 0 {
		if err := inner.Replace(append(append([]Entry(nil), base...), replayed...)); err != nil {
			w.close()
			return nil, fmt.Errorf("gt: restore state: %w", err)
		}
	}
	p.wal = w
	p.nextSeq = lastSeq + 1
	// The durable state equals memory right now; the first compaction
	// should wait for an actual change (or fold a replayed log).
	info := inner.Info()
	p.compactRev = info.Rev
	if len(base) > 0 || len(replayed) > 0 {
		opt.Logf("gt: restored %d entries (%d from snapshot, %d replayed from WAL)",
			info.Entries, len(snapEntries), len(replayed))
	}
	return p, nil
}

// Add implements Store: apply to the inner store, then append the record
// to the WAL and sync. The in-memory store is the source of truth; a WAL
// append failure degrades durability of this one entry (reported as the
// error), never the live database.
func (p *Persistent) Add(e Entry) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("gt: store closed")
	}
	if err := p.inner.Add(e); err != nil {
		return err
	}
	rec := walRecord{Seq: p.nextSeq, Entry: e}
	if err := p.appendWAL(func() error { return p.wal.append(rec) }); err != nil {
		// The entry is live in memory but not durable; callers on the
		// trial-completion path ignore Add errors by design, so this log
		// line is the only trace of degraded durability.
		p.opt.Logf("gt: WAL append failed (entry stays in memory only): %v", err)
		return err
	}
	p.nextSeq++
	if p.opt.CompactEvery > 0 && p.wal.records >= p.opt.CompactEvery {
		if err := p.compactLocked(); err != nil {
			p.opt.Logf("gt: compaction failed: %v", err)
		}
	}
	return nil
}

// AddAll applies a batch of entries with one framed WAL write and one
// fsync — the bulk-import path. It returns how many entries were applied
// to the live store; on error the applied prefix is still live (and its
// log records flushed), so callers can report partial progress honestly.
func (p *Persistent) AddAll(entries []Entry) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, fmt.Errorf("gt: store closed")
	}
	applied := 0
	recs := make([]walRecord, 0, len(entries))
	for _, e := range entries {
		if err := p.inner.Add(e); err != nil {
			// Best-effort flush of the applied prefix; the Add error is
			// the one the caller needs to see.
			if ferr := p.flushLocked(recs); ferr != nil {
				p.opt.Logf("gt: flushing partial batch failed: %v", ferr)
			}
			return applied, err
		}
		recs = append(recs, walRecord{Seq: p.nextSeq + uint64(len(recs)), Entry: e})
		applied++
	}
	if err := p.flushLocked(recs); err != nil {
		p.opt.Logf("gt: WAL batch append failed (%d entries stay in memory only): %v", len(recs), err)
		return applied, err
	}
	if p.opt.CompactEvery > 0 && p.wal.records >= p.opt.CompactEvery {
		if err := p.compactLocked(); err != nil {
			p.opt.Logf("gt: compaction failed: %v", err)
		}
	}
	return applied, nil
}

// flushLocked appends the batch to the log and advances the sequence.
// Callers hold p.mu.
func (p *Persistent) flushLocked(recs []walRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if err := p.appendWAL(func() error { return p.wal.appendBatch(recs) }); err != nil {
		return err
	}
	p.nextSeq += uint64(len(recs))
	return nil
}

// Compact folds the log into a fresh snapshot if anything changed since
// the last compaction. Safe to call at any time; concurrent lookups are
// never blocked (only writers queue behind it).
func (p *Persistent) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("gt: store closed")
	}
	return p.compactLocked()
}

// compactLocked writes the snapshot (atomically, temp+rename) and resets
// the log. Callers hold p.mu. No-ops when nothing changed since the last
// compaction, so periodic tickers are free on an idle service.
func (p *Persistent) compactLocked() error {
	rev := p.inner.Info().Rev
	if rev == p.compactRev && p.wal.records == 0 {
		return nil
	}
	entries := p.inner.Entries()
	seq := p.nextSeq - 1 // highest sequence folded into this snapshot
	if err := writeFileAtomic(p.path, func(w io.Writer) error {
		return saveEntries(w, entries, seq)
	}); err != nil {
		return fmt.Errorf("gt: compact: %w", err)
	}
	// The snapshot is durable; dropping the log second is safe — if we
	// crash in between, replay skips records at or below the watermark.
	if err := p.wal.reset(); err != nil {
		return err
	}
	p.compactRev = rev
	if p.met != nil {
		p.met.compactions.Inc()
	}
	return nil
}

// Close takes a final compaction and releases the log file. The store
// must not be used afterwards.
func (p *Persistent) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	err := p.compactLocked()
	if cerr := p.wal.close(); err == nil {
		err = cerr
	}
	p.closed = true
	return err
}

// Replace implements Store: the new contents replace both the in-memory
// state and the durable state (log reset + fresh snapshot).
func (p *Persistent) Replace(entries []Entry) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("gt: store closed")
	}
	if err := p.inner.Replace(entries); err != nil {
		return err
	}
	// compactLocked writes the new snapshot durably FIRST and only then
	// resets the log — never truncate the log before the snapshot that
	// supersedes it exists, or a crash in between loses acknowledged
	// entries that were durable only in the log.
	return p.compactLocked()
}

// Pass-through reads: persistence must add nothing to the hot path.

// Lookup implements Store.
func (p *Persistent) Lookup(features []float64) (params.SysConfig, bool) {
	return p.inner.Lookup(features)
}

// Entries implements Store.
func (p *Persistent) Entries() []Entry { return p.inner.Entries() }

// Info implements Store, adding the WAL depth to the inner store's view.
func (p *Persistent) Info() Info {
	info := p.inner.Info()
	p.mu.Lock()
	info.WALRecords = p.wal.records
	p.mu.Unlock()
	return info
}

var _ Store = (*Persistent)(nil)
