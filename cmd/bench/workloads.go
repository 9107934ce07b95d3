package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pipetune"
	"pipetune/api"
)

// Workload names — the names every later change reports against.
const (
	wlFreshRemote     = "fresh-remote"
	wlRecurringRemote = "recurring-remote"
	wlRecurringLocal  = "recurring-local"
	wlStatusRead      = "status-read"
)

// clients is the closed loop's width: every loop in the harness has this
// many callers, each waiting for its reply before sending again. It is
// the reference box's core count — a 2-core box cannot host an honest
// open-loop generator beside the daemon and the worker.
const clients = 2

// Work is fixed by count, never by duration, because the ground truth
// grows with every job and makes speed a function of run length. The
// timed window is a number of laps. On the recurring sets every lap is
// the same work from the same state: the ground truth is put back to its
// warmed contents (Store.Replace, a public seam) and the same jobs are
// submitted again — so a run holds several measurements of one thing,
// and a rate is the median over them. The box this runs on loses the CPU
// to its neighbours for seconds at a time; a median lap does not notice
// unless that happens for half the run. -seconds scales the number of
// laps, never a lap, so the numbers do not depend on it.
const (
	freshLapSeconds     = 3  // fresh-remote: a lap is one round, 7 workloads × {pipetune, tune-v1}, new seeds each
	recurringLapSeconds = 2  // recurring-*: a lap is recurringLapCycles cycles of the 14 specs
	recurringLapCycles  = 5  // 70 jobs
	statusLapSeconds    = 2  // status-read: a lap is statusLapPasses passes over the read set
	statusLapPasses     = 16 // 1 024 reads
	statusReadSet       = 64 // finished jobs client A reads round-robin
	minLaps             = 3
)

// workloadInfo is one workload; BENCHMARK.json says why each exists.
type workloadInfo struct {
	name   string
	remote bool // over the binary wire to the agent, or on exec.Local
}

var workloads = []workloadInfo{
	{wlFreshRemote, true},
	{wlRecurringRemote, true},
	{wlRecurringLocal, false},
	{wlStatusRead, false},
}

func workloadByName(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// jobSpec is one generated request plus the identity the correctness
// gate and the tracer know it by.
type jobSpec struct {
	req      api.JobRequest
	workload string
	seed     uint64
	pipetune bool
}

func (j jobSpec) key() string      { return specKey(j.workload, j.seed, j.pipetune) }
func (j jobSpec) trainKey() string { return fmt.Sprintf("%s|%d", j.workload, j.seed) }

func newJob(workload string, seed uint64, pipetuneMode bool) jobSpec {
	mode := api.ModeTuneV1
	if pipetuneMode {
		mode = api.ModePipeTune
	}
	return jobSpec{
		req:      api.JobRequest{Workload: workload, Mode: mode, Seed: seed},
		workload: workload, seed: seed, pipetune: pipetuneMode,
	}
}

// twins is one catalog workload under one job seed, in both modes.
type twins struct{ v1, pipetune jobSpec }

// catalogRound returns the Table 3 catalog under one job seed.
//
// Job seeds are small fixed numbers (round 0 → seed 1, …), not derived
// from the run seed: a job seed decides which hyperparameters HyperBand
// samples, hence how much SGD a job costs, and the benchmark must do the
// same work on every run seed for runs to be comparable. The run seed
// decides the order in which the fixed specs are submitted — which moves
// what is concurrent with what, how the ground truth grows, and which
// cache entry is touched when. A welcome consequence: the checked-in
// golden digests cover every run seed.
func catalogRound(round int) []twins {
	var out []twins
	for _, w := range pipetune.Catalog() {
		s := uint64(round) + 1 // never 0, which the API reads as "the daemon's master seed"
		out = append(out, twins{newJob(w.Name(), s, false), newJob(w.Name(), s, true)})
	}
	return out
}

// recurringSet is the recurring working set in this run's order: catalog
// × 2 job seeds = 14 specs, ≈30 MB of trial cache, inside the 64 MiB
// budget so nothing is ever evicted.
func recurringSet(rng *rand.Rand) []twins {
	set := append(catalogRound(0), catalogRound(1)...)
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// plan is the trace of one run, generated from the run seed alone. A
// unit is what one client does before taking the next unit: one job, or
// a pair of twins back to back (so that which twin trains and which
// replays is fixed by the trace, not by a race).
type plan struct {
	warm [][]jobSpec // before the window
	// laps is the timed work, lap by lap. On status-read a lap's units
	// are what client B repeats until client A has done its reads.
	laps [][][]jobSpec
	// restoreGT puts the ground truth back to its warmed contents before
	// every lap, making the laps repetitions of one another.
	restoreGT bool
	lapReads  int   // status-read: GETs client A issues per lap
	perm      []int // status-read: the order A visits the read set in
}

func singles(js []jobSpec) [][]jobSpec {
	units := make([][]jobSpec, len(js))
	for i, j := range js {
		units[i] = []jobSpec{j}
	}
	return units
}

func makePlan(wl workloadInfo, runSeed uint64, seconds int) plan {
	rng := rand.New(rand.NewSource(int64(runSeed)))
	var p plan
	if wl.name == wlFreshRemote {
		// Warm: one single-epoch tune-v1 job per catalog workload under
		// a seed the window never uses. It generates all seven corpora on
		// the worker and opens the connections, shares no training prefix
		// with the window, and leaves the ground truth cold (tune-v1
		// never touches it).
		for _, tw := range catalogRound(1000) {
			tw.v1.req.Epochs = 1
			p.warm = append(p.warm, []jobSpec{tw.v1})
		}
		for round := 0; round < max(minLaps, seconds/freshLapSeconds); round++ {
			set := catalogRound(round)
			rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
			var lap [][]jobSpec
			for _, tw := range set {
				// pipetune first: it is the job the north-star describes;
				// its tune-v1 twin then replays the same prefixes.
				lap = append(lap, []jobSpec{tw.pipetune, tw.v1})
			}
			p.laps = append(p.laps, lap)
		}
		return p
	}
	set := recurringSet(rng)
	var cycle []jobSpec
	for _, tw := range set {
		// Warm: tune-v1 first (trains, fills the cache, and prices the
		// twin for sim_tuning_ratio), then pipetune (replays, and warms
		// the ground truth).
		p.warm = append(p.warm, []jobSpec{tw.v1, tw.pipetune})
		cycle = append(cycle, tw.pipetune)
	}
	p.restoreGT = true
	lap := singles(cycle)
	lapSeconds := recurringLapSeconds
	if wl.name == wlStatusRead {
		// 64 finished jobs to read: the 28 above and 36 more replays.
		for i := 0; 2*len(set)+i < statusReadSet; i++ {
			p.warm = append(p.warm, []jobSpec{cycle[i%len(cycle)]})
		}
		p.lapReads = statusLapPasses * statusReadSet
		p.perm = rng.Perm(statusReadSet)
		lapSeconds = statusLapSeconds
	} else {
		for c := 1; c < recurringLapCycles; c++ {
			lap = append(lap, singles(cycle)...)
		}
	}
	for l := 0; l < max(minLaps, seconds/lapSeconds); l++ {
		p.laps = append(p.laps, lap)
	}
	return p
}

// jobRecord is one job as its tenant saw it. Offsets are nanoseconds
// since the run's epoch.
type jobRecord struct {
	spec   jobSpec
	id     string
	lap    int   // which lap of the timed window; -1: warm-up
	seq    int   // position in the lap's submission order
	t0     int64 // Submit called
	t1     int64 // Submit returned
	t2     int64 // terminal event seen
	t3     int64 // result in hand
	status api.JobStatus
	err    error
}

func (r jobRecord) latencySeconds() float64 { return float64(r.t3-r.t0) / 1e9 }

func (r jobRecord) trials() int {
	if r.status.Result == nil {
		return 0
	}
	return len(r.status.Result.Trials)
}

// run is the state of one workload run: the daemon, the clock, and
// everything the clients recorded.
type run struct {
	d     *daemon
	t     *tracer // nil when untraced
	epoch time.Time
	mu    sync.Mutex
	jobs  []jobRecord

	// status-read only: client A's reads.
	reads        []readRecord
	readAttempts int
	readFailures int
}

type readRecord struct {
	lap        int
	start, end int64
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// tenant drives one job exactly as a tenant would: Submit, follow the
// SSE stream to the terminal event, fetch the result.
func (r *run) tenant(ctx context.Context, spec jobSpec, lap, seq int) jobRecord {
	rec := jobRecord{spec: spec, lap: lap, seq: seq}
	var root, sub span
	if r.t != nil {
		root = r.t.open(spanJob, 0, spec.key())
		sub = r.t.open(spanClientSubmit, root.ID, spec.key())
		ctx = withSpan(ctx, sub)
	}
	rec.t0 = r.now()
	st, err := r.d.cl.Submit(ctx, spec.req)
	rec.t1 = r.now()
	if err != nil {
		rec.err = fmt.Errorf("submit %s: %w", spec.key(), err)
		return rec
	}
	rec.id = st.ID
	if r.t != nil {
		sub.Job = st.ID
		r.t.close(sub)
	}
	if err := r.d.cl.Follow(ctx, st.ID, func(api.Event) error { return nil }); err != nil {
		rec.err = fmt.Errorf("follow %s: %w", st.ID, err)
		return rec
	}
	rec.t2 = r.now()
	var fetch span
	if r.t != nil {
		fetch = r.t.open(spanClientFetch, root.ID, spec.key())
		fetch.Job = st.ID
		ctx = withSpan(ctx, fetch)
	}
	rec.status, err = r.d.cl.Job(ctx, st.ID)
	rec.t3 = r.now()
	if err != nil {
		rec.err = fmt.Errorf("fetch %s: %w", st.ID, err)
		return rec
	}
	if r.t != nil {
		r.t.close(fetch)
		root.Job = st.ID
		r.t.close(root)
	}
	if rec.status.State != api.StateDone {
		rec.err = fmt.Errorf("job %s (%s) ended %s: %s", st.ID, spec.key(), rec.status.State, rec.status.Error)
	}
	return rec
}

// jobFailures counts jobs that did not end done with a result in hand.
func (r *run) jobFailures() int {
	n := 0
	for _, j := range r.jobs {
		if j.err != nil {
			n++
		}
	}
	return n
}

func (r *run) record(rec jobRecord) {
	r.mu.Lock()
	r.jobs = append(r.jobs, rec)
	r.mu.Unlock()
}

// closedLoop runs the units on `clients` goroutines, each taking the
// next unit only after finishing its last.
func (r *run) closedLoop(ctx context.Context, units [][]jobSpec, lap int) {
	seqOf := make([]int, len(units)) // a unit's first job's position in submission order
	for i := 1; i < len(units); i++ {
		seqOf[i] = seqOf[i-1] + len(units[i-1])
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) || ctx.Err() != nil {
					return
				}
				for k, spec := range units[i] {
					r.record(r.tenant(ctx, spec, lap, seqOf[i]+k))
				}
			}
		}()
	}
	wg.Wait()
}

// statusLap is one lap of the read-beside-write workload: client A
// issues the plan's GET /v1/jobs/{id}, pass after pass over the finished
// jobs in the plan's order, while client B keeps cycling the recurring
// specs until A is done. It returns when A finished; B's job in flight
// at that moment runs to its end but counts for no rate.
func (r *run) statusLap(ctx context.Context, p plan, lap int) (end int64) {
	var ids []string
	for _, j := range r.jobs {
		if j.err == nil && len(ids) < statusReadSet {
			ids = append(ids, j.id)
		}
	}
	r.readAttempts += p.lapReads
	if len(ids) < statusReadSet {
		r.readFailures += p.lapReads
		return r.now()
	}
	cycle := p.laps[lap]
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // client B
		defer wg.Done()
		for i := 0; !stop.Load() && ctx.Err() == nil; i++ {
			r.record(r.tenant(ctx, cycle[i%len(cycle)][0], lap, i))
		}
	}()
	for i := 0; i < p.lapReads; i++ { // client A
		id := ids[p.perm[i%len(ids)]]
		rctx := ctx
		var sp span
		if r.t != nil {
			sp = r.t.open(spanClientRead, 0, "")
			sp.Job = id
			rctx = withSpan(ctx, sp)
		}
		start := r.now()
		st, err := r.d.cl.Job(rctx, id)
		end := r.now()
		if r.t != nil {
			r.t.close(sp)
		}
		if err != nil || st.Result == nil {
			r.readFailures++
			continue
		}
		r.reads = append(r.reads, readRecord{lap, start, end})
	}
	end = r.now()
	stop.Store(true)
	wg.Wait()
	return end
}
