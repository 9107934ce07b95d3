package gt

import (
	"pipetune/internal/metrics"
)

// Instrumentable is the optional interface a store implements to
// report operational series into a metrics registry. The service
// type-asserts its configured Store against it, so plain stores (or
// test fakes) need no metrics awareness.
type Instrumentable interface {
	// InstrumentMetrics registers this store's instruments in reg and
	// starts reporting. Must be called before the store sees
	// concurrent use; a nil registry is a no-op.
	InstrumentMetrics(reg *metrics.Registry)
}

// storeInstruments are the in-memory store's registry handles. An
// uninstrumented store carries a nil pointer and the hot paths skip even
// the time.Now calls.
type storeInstruments struct {
	lookupSeconds *metrics.Distribution
	addSeconds    *metrics.Distribution
	hits          *metrics.Counter
	misses        *metrics.Counter
}

func newStoreInstruments(reg *metrics.Registry) *storeInstruments {
	if reg == nil {
		return nil
	}
	return &storeInstruments{
		lookupSeconds: reg.Distribution("pipetune_gt_lookup_seconds",
			"Ground-truth store lookup latency."),
		addSeconds: reg.Distribution("pipetune_gt_add_seconds",
			"Ground-truth store add latency (excluding WAL durability)."),
		hits: reg.Counter("pipetune_gt_lookup_hits_total",
			"Ground-truth lookups that returned a configuration."),
		misses: reg.Counter("pipetune_gt_lookup_misses_total",
			"Ground-truth lookups that found no match."),
	}
}

// walInstruments are the durability-layer handles of the persistent
// wrapper.
type walInstruments struct {
	fsyncs       *metrics.Counter
	fsyncSeconds *metrics.Distribution
	compactions  *metrics.Counter
}

func newWALInstruments(reg *metrics.Registry) *walInstruments {
	if reg == nil {
		return nil
	}
	return &walInstruments{
		fsyncs: reg.Counter("pipetune_gt_wal_fsyncs_total",
			"WAL append fsyncs issued by the persistent ground-truth store."),
		fsyncSeconds: reg.Distribution("pipetune_gt_wal_fsync_seconds",
			"Latency of one framed WAL append including its fsync."),
		compactions: reg.Counter("pipetune_gt_compactions_total",
			"Ground-truth WAL compactions that wrote a snapshot."),
	}
}
