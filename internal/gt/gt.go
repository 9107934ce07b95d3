// Package gt is the ground-truth similarity database of §5.4 — the
// cross-job economy that lets a tuning job skip probing because a similar
// job already ran (§7.4) — carved out of internal/core for the tuning
// service's shared use.
//
// Memory, the Store implementation, is one list of entries in insertion
// order behind one mutex. A lookup is a nearest-neighbour vote over the
// whole list (Memory.Lookup states the rule), so there is no model to fit
// and nothing to route or refit.
//
// Persistence is layered on top by Persistent: an append-only WAL plus a
// periodically compacted snapshot replace the old whole-file JSON rewrites,
// and the snapshot format stays readable both ways — a pre-WAL
// groundtruth.json loads as a snapshot with an empty log.
package gt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"pipetune/internal/params"
)

// Entry is one historical ground-truth record: the profile of a trial and
// the best system configuration discovered for it.
type Entry struct {
	Features []float64        `json:"features"` // log-scaled 58-event profile
	BestSys  params.SysConfig `json:"bestSys"`
	// Metric is the winner's *relative advantage*: the best configuration's
	// per-epoch value divided by the mean over all configurations measured
	// alongside it (dimensionless, lower = more dominant). Being relative
	// makes entries comparable across trials with different
	// hyperparameters, which raw durations are not.
	Metric float64 `json:"metric"`
}

// validate rejects malformed entries before they reach any store: no
// features, a feature width other than the store's (width 0: the store
// is empty, any width starts it), a NaN or ±Inf feature or metric, or an
// invalid configuration. A store of mixed widths could measure no distance.
func (e Entry) validate(width int) error {
	if len(e.Features) == 0 {
		return errors.New("gt: entry without features")
	}
	if width != 0 && len(e.Features) != width {
		return fmt.Errorf("gt: entry has %d features, the store holds %d", len(e.Features), width)
	}
	for _, f := range e.Features {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("gt: entry holds the feature %v", f)
		}
	}
	if math.IsNaN(e.Metric) || math.IsInf(e.Metric, 0) {
		return fmt.Errorf("gt: entry holds the metric %v", e.Metric)
	}
	if err := e.BestSys.Validate(); err != nil {
		return fmt.Errorf("gt: %w", err)
	}
	return nil
}

// Validate reports, by index, the first of entries that an Add to s
// would refuse, so a batch can be refused before any of it applies.
func Validate(s Store, entries []Entry) error {
	width := widthOf(s)
	for i, e := range entries {
		if err := e.validate(width); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		width = len(e.Features)
	}
	return nil
}

// widthOf is the feature width s holds: 0 when s is empty, and when it is
// a wrapper this package cannot see through (whose own Add still checks).
func widthOf(s Store) int {
	switch st := s.(type) {
	case *Persistent:
		return widthOf(st.inner)
	case *Memory:
		return st.width()
	}
	return 0
}

// clone deep-copies the entry so stores never alias caller memory.
func (e Entry) clone() Entry {
	return Entry{
		Features: append([]float64(nil), e.Features...),
		BestSys:  e.BestSys,
		Metric:   e.Metric,
	}
}

// Config tunes the lookup rule. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Threshold scales the store's spread when deciding whether a new
	// profile is "similar enough" to reuse (§5.6).
	Threshold float64
	// MinEntries is the store size below which every lookup misses.
	MinEntries int
}

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{Threshold: 2.0, MinEntries: 4}
}

// Info is a rich snapshot of a store's state: the body of the daemon's
// GET /v1/groundtruth, so its JSON is a wire format.
type Info struct {
	// Entries is the stored entry count; Hits and Misses count lookups.
	Entries int `json:"entries"`
	Hits    int `json:"hits"`
	Misses  int `json:"misses"`
	// Rev is the data revision: it advances on every mutation.
	Rev uint64 `json:"rev"`
	// WALRecords is the number of un-compacted write-ahead-log records
	// (only set by the persistence layer).
	WALRecords int `json:"walRecords,omitempty"`
}

// Store is the ground-truth database contract: Memory implements it and
// Persistent wraps any implementation of it. Implementations must be safe
// for concurrent use.
type Store interface {
	// Add stores an entry; a subsequent Lookup sees it.
	Add(e Entry) error
	// Lookup returns the known-best configuration for a profile if the
	// similarity function matches it confidently (§5.6).
	Lookup(features []float64) (params.SysConfig, bool)
	// Entries returns a copy of all entries in insertion order.
	Entries() []Entry
	// Replace swaps the database contents for the given entries (the warm
	// start of §5.4). Lookup counters are preserved.
	Replace(entries []Entry) error
	// Info reports the store's state: size, lookup counters, revision.
	Info() Info
}

// Save writes the store's entries as a JSON snapshot. OpenPersistent is
// what reads one back.
func Save(w io.Writer, s Store) error { return saveEntries(w, s.Entries(), 0) }

// snapshot is the JSON persistence format. Seq is the write-ahead-log
// sequence number the snapshot covers; legacy (pre-WAL) files simply lack
// it and decode as Seq 0, which replays any log in full — exactly right,
// since legacy deployments have no log.
type snapshot struct {
	Entries []Entry `json:"entries"`
	Seq     uint64  `json:"seq,omitempty"`
}

// saveEntries encodes entries in the legacy-compatible snapshot format —
// byte for byte what json.NewEncoder(w).Encode(snapshot{entries, seq})
// writes — but entry by entry: encoding the database as one value builds,
// and leaves in encoding/json's buffer pool, an O(entries) buffer per
// compaction.
func saveEntries(w io.Writer, entries []Entry, seq uint64) error {
	bw := bufio.NewWriter(w)
	if entries == nil {
		bw.WriteString(`{"entries":null`)
	} else {
		bw.WriteString(`{"entries":[`)
		var one bytes.Buffer // one entry at a time, reused
		enc := json.NewEncoder(&one)
		for i := range entries {
			one.Reset()
			if err := enc.Encode(&entries[i]); err != nil {
				return err
			}
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.Write(one.Bytes()[:one.Len()-1]) // minus Encode's line terminator
		}
		bw.WriteByte(']')
	}
	if seq != 0 {
		bw.WriteString(`,"seq":`)
		bw.WriteString(strconv.FormatUint(seq, 10))
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

// loadSnapshot decodes a snapshot (legacy or WAL-era).
func loadSnapshot(r io.Reader) (snapshot, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return snapshot{}, fmt.Errorf("gt: load snapshot: %w", err)
	}
	return snap, nil
}

// writeFileAtomic writes via a temp file in the target's directory, syncs
// and renames, so readers observe either the old complete file or the new
// one.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
