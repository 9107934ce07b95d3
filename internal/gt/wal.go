package gt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The write-ahead log is an append-only file of CRC-framed JSON records:
//
//	magic  "PTGTWAL1"                            (8 bytes, once)
//	record [uint32 payload length (LE)]
//	       [uint32 CRC-32 (IEEE) of the payload]
//	       [payload: JSON walRecord]
//
// Records are applied on top of the last compacted snapshot at recovery.
// A torn append (crash mid-write) or a corrupted tail is detected by the
// length/CRC frame, and a record the store would refuse (another feature
// width, a non-finite value, an invalid configuration) by the same check
// Add runs; replay stops at the first damaged or refused record and
// recovery keeps everything before it — the snapshot plus the valid prefix.
const walMagic = "PTGTWAL1"

// walMaxRecord bounds a single record so a corrupted length prefix cannot
// ask replay to allocate gigabytes.
const walMaxRecord = 16 << 20

// walRecord is one logged mutation. Seq is a global, strictly increasing
// sequence number; records at or below the snapshot's Seq are skipped on
// replay (they are already folded into the snapshot).
type walRecord struct {
	Seq   uint64 `json:"seq"`
	Entry Entry  `json:"entry"`
}

// ErrWALCorrupt reports a damaged (truncated or bit-flipped) log tail, or
// one whose first bad record is an entry the store refuses.
// Recovery treats it as a signal to truncate the log at the last good
// record, not as a fatal error.
var ErrWALCorrupt = errors.New("gt: corrupt WAL tail")

// wal is the append side of the log.
type wal struct {
	f       *os.File
	records int
	// goodOff is the file offset just past the last fully-synced record.
	// A failed or partial append truncates back to it, so a torn frame
	// can never sit in front of later, successfully-acknowledged records
	// (recovery stops at the first damaged frame — anything after it
	// would be silently lost).
	goodOff int64
}

// openWAL opens (creating if needed) the log at path for appending and
// replays existing records through apply, in order. Records with
// seq <= afterSeq are skipped; the rest must validate against width, the
// feature width of the state they replay onto (0: empty), which the first
// replayed record sets when it is 0. On a damaged tail the file is truncated at
// the last good record so subsequent appends extend the valid prefix; the
// damage is reported through the returned tailErr (an ErrWALCorrupt
// wrapper) while the wal itself is still usable.
func openWAL(path string, afterSeq uint64, width int, apply func(walRecord)) (w *wal, lastSeq uint64, tailErr error, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("gt: open WAL: %w", err)
	}
	goodOff, lastSeq, nRecords, tailErr, err := replayWAL(f, afterSeq, width, apply)
	if err != nil {
		f.Close()
		return nil, 0, nil, err
	}
	if tailErr != nil {
		if trErr := f.Truncate(goodOff); trErr != nil {
			f.Close()
			return nil, 0, nil, fmt.Errorf("gt: truncate damaged WAL: %w", trErr)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, 0, nil, fmt.Errorf("gt: seek WAL: %w", err)
	}
	return &wal{f: f, records: nRecords, goodOff: goodOff}, lastSeq, tailErr, nil
}

// replayWAL scans the log from the start, applying valid records with
// seq > afterSeq. It returns the offset just past the last good record,
// the highest sequence seen, the number of valid records, and a non-nil
// tailErr when the tail is damaged or holds an entry of another width
// than the running one (or one validate refuses otherwise).
func replayWAL(f *os.File, afterSeq uint64, width int, apply func(walRecord)) (goodOff int64, lastSeq uint64, nRecords int, tailErr error, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("gt: seek WAL: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("gt: stat WAL: %w", err)
	}
	if st.Size() == 0 { // fresh log: write the magic
		if _, err := f.Write([]byte(walMagic)); err != nil {
			return 0, 0, 0, nil, fmt.Errorf("gt: init WAL: %w", err)
		}
		return int64(len(walMagic)), afterSeq, 0, nil, nil
	}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != walMagic {
		// Not a WAL at all (or shorter than the magic): treat the whole
		// file as damage and keep only the snapshot.
		return 0, afterSeq, 0, fmt.Errorf("%w: bad magic", ErrWALCorrupt), nil
	}
	goodOff = int64(len(walMagic))
	lastSeq = afterSeq
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return goodOff, lastSeq, nRecords, nil, nil // clean end
			}
			return goodOff, lastSeq, nRecords, fmt.Errorf("%w: torn frame header", ErrWALCorrupt), nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > walMaxRecord {
			return goodOff, lastSeq, nRecords, fmt.Errorf("%w: implausible record length %d", ErrWALCorrupt, length), nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return goodOff, lastSeq, nRecords, fmt.Errorf("%w: torn record", ErrWALCorrupt), nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return goodOff, lastSeq, nRecords, fmt.Errorf("%w: checksum mismatch", ErrWALCorrupt), nil
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return goodOff, lastSeq, nRecords, fmt.Errorf("%w: undecodable record: %v", ErrWALCorrupt, err), nil
		}
		if rec.Seq > afterSeq {
			if err := rec.Entry.validate(width); err != nil {
				return goodOff, lastSeq, nRecords, fmt.Errorf("%w: record %d refused: %v", ErrWALCorrupt, rec.Seq, err), nil
			}
			width = len(rec.Entry.Features)
			apply(rec)
		}
		if rec.Seq > lastSeq {
			lastSeq = rec.Seq
		}
		nRecords++
		goodOff += int64(len(hdr)) + int64(length)
	}
}

// append frames, writes and syncs one record.
func (w *wal) append(rec walRecord) error {
	return w.appendBatch([]walRecord{rec})
}

// appendBatch frames all records into one buffer, writes them with a
// single Write and a single Sync — bulk feeds (HTTP imports) pay one
// fsync per batch instead of one per entry. On any failure the file is
// rolled back to the last good offset so the log never carries a torn
// frame in front of future appends.
func (w *wal) appendBatch(recs []walRecord) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("gt: encode WAL record: %w", err)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	if _, err := w.f.Write(buf); err != nil {
		w.rollback()
		return fmt.Errorf("gt: append WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.rollback()
		return fmt.Errorf("gt: sync WAL: %w", err)
	}
	w.records += len(recs)
	w.goodOff += int64(len(buf))
	return nil
}

// rollback repositions the log at the last good offset after a failed
// append. The seek happens regardless of whether the truncate succeeds:
// if torn bytes could not be cut off, the next append simply overwrites
// them in place, so acknowledged records never sit behind a damaged
// frame (recovery stops at the first one). Any stale remnant past the
// overwriting append is detected as a damaged tail at the next boot and
// truncated there, after the valid frames.
func (w *wal) rollback() {
	_ = w.f.Truncate(w.goodOff)
	_, _ = w.f.Seek(w.goodOff, io.SeekStart)
}

// reset truncates the log back to just the magic (after a compaction
// folded its records into the snapshot).
func (w *wal) reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("gt: reset WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("gt: reset WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("gt: reset WAL: %w", err)
	}
	w.records = 0
	w.goodOff = int64(len(walMagic))
	return nil
}

// close releases the file handle.
func (w *wal) close() error { return w.f.Close() }
