package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runOptions selects one workload run.
type runOptions struct {
	workload     workloadInfo
	seed         uint64
	seconds      int
	traced       bool
	traceOut     string // Chrome trace-event file (traced runs; "" = none)
	updateGolden bool
}

// lapStats is one lap of the timed window.
type lapStats struct {
	start, end   int64   // end: on status-read, when client A finished
	cpu          float64 // process CPU seconds inside the lap
	jobs, trials int     // done by the lap's end
}

// result is everything one run found out.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	Metrics    map[string]metric      `json:"metrics"`
	Digests    map[string]specDigests `json:"digests"`
}

func (res *result) set(name string, value float64, unit string, n int) {
	res.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// Set-up is cheap on some workloads (a boot and seven corpora) and
// expensive on others (fourteen trained jobs). A cheap set-up is noisy,
// so it is repeated — torn down and built again — for as long as one more
// fits in setupBudget, at most maxSetups times, and the median is
// reported.
const (
	setupBudget = 8 * time.Second
	maxSetups   = 5
)

// setUp boots a daemon under a fresh state directory and warms it, again
// and again while that is cheap, and returns the last one running with
// the time each set-up took.
func setUp(ctx context.Context, remote bool, warm [][]jobSpec, t *tracer, epoch time.Time) (r *run, dir string, setups []float64, err error) {
	var spent time.Duration
	for {
		start := time.Now()
		// State lives under the working directory: the benchmark reads
		// and writes only inside its checkout.
		if dir, err = os.MkdirTemp(".", ".bench_tmp-"); err != nil {
			return nil, "", nil, err
		}
		d, err := boot(dir, remote, t)
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", nil, err
		}
		r = &run{d: d, t: t, epoch: epoch}
		r.closedLoop(ctx, warm, -1)
		runtime.GC() // the window starts from a collected heap
		took := time.Since(start)
		setups = append(setups, took.Seconds())
		spent += took
		if r.jobFailures() > 0 || spent+took > setupBudget || len(setups) >= maxSetups {
			return r, dir, setups, nil
		}
		d.close()
		os.RemoveAll(dir)
	}
}

// runLaps is the timed window.
func (r *run) runLaps(ctx context.Context, p plan) ([]lapStats, error) {
	warmGT := r.d.sys.GroundTruth().Entries()
	laps := make([]lapStats, len(p.laps))
	for l, units := range p.laps {
		if p.restoreGT {
			if err := r.d.sys.GroundTruth().Replace(warmGT); err != nil {
				return nil, fmt.Errorf("restore ground truth before lap %d: %w", l, err)
			}
		}
		lap := &laps[l]
		lap.cpu, lap.start = -cpuSeconds(), r.now()
		if p.lapReads > 0 {
			lap.end = r.statusLap(ctx, p, l)
		} else {
			r.closedLoop(ctx, units, l)
			lap.end = r.now()
		}
		lap.cpu += cpuSeconds()
	}
	return laps, nil
}

// runWorkload boots a daemon, warms it, runs the timed window and turns
// what the clients, the public metrics page and (when traced) the seam
// decorators saw into named metrics.
func runWorkload(opt runOptions) (*result, error) {
	ctx := context.Background()
	var t *tracer
	epoch := time.Now()
	if opt.traced {
		t = newTracer()
		epoch = t.epoch
	}
	p := makePlan(opt.workload, opt.seed, opt.seconds)
	r, dir, setups, err := setUp(ctx, opt.workload.remote, p.warm, t, epoch)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer r.d.close()

	res := &result{
		Workload: opt.workload.name, Seed: opt.seed, Traced: opt.traced,
		Metrics: map[string]metric{},
	}
	g := newGate()
	if r.jobFailures() > 0 {
		for _, j := range r.jobs {
			g.observe(j)
		}
		return nil, fmt.Errorf("warm-up failed: %s", strings.Join(g.violations, "; "))
	}
	res.set("setup_s", median(setups), "s", len(setups))

	warmTrials := 0
	for _, j := range r.jobs {
		warmTrials += j.trials()
	}
	before, err := r.d.settledScrape(ctx, float64(warmTrials))
	if err != nil {
		return nil, err
	}
	gtBefore, err := r.d.cl.GroundTruth(ctx)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	laps, err := r.runLaps(ctx, p)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	// Jobs that count: in a lap and done by its end.
	var timed []jobRecord
	allTrials, timedTrials := 0, 0
	for _, j := range r.jobs {
		allTrials += j.trials()
		g.observe(j)
		if j.lap >= 0 && j.err == nil && j.t3 <= laps[j.lap].end {
			timed = append(timed, j)
			timedTrials += j.trials()
			laps[j.lap].jobs++
			laps[j.lap].trials += j.trials()
		}
	}
	after, err := r.d.settledScrape(ctx, float64(allTrials))
	if err != nil {
		return nil, err
	}
	gtAfter, err := r.d.cl.GroundTruth(ctx)
	if err != nil {
		return nil, err
	}
	delta := func(fam string) float64 { return after[fam] - before[fam] }

	// ---- end-to-end, as a tenant sees it -------------------------------
	// Where laps repeat one another a rate is the median lap's; where they
	// do not (fresh-remote: every round is new work) a "median lap" would
	// be whichever round the noise picked, and the rate is the window's.
	var jobRates, trialRates, cpuPerTrial, lapDrift []float64
	var windowS, windowCPU float64
	for l, lap := range laps {
		if lap.jobs == 0 || lap.trials == 0 {
			return nil, fmt.Errorf("no job finished inside lap %d", l)
		}
		s := float64(lap.end-lap.start) / 1e9
		jobRates = append(jobRates, float64(lap.jobs)/s)
		trialRates = append(trialRates, float64(lap.trials)/s)
		cpuPerTrial = append(cpuPerTrial, lap.cpu/float64(lap.trials))
		windowS += s
		windowCPU += lap.cpu
	}
	if !p.restoreGT {
		jobRates = []float64{float64(len(timed)) / windowS}
		trialRates = []float64{float64(timedTrials) / windowS}
		cpuPerTrial = []float64{windowCPU / float64(timedTrials)}
	}
	res.set("jobs_per_s", median(jobRates), "1/s", len(timed))
	res.set("trials_per_s", median(trialRates), "1/s", timedTrials)
	res.set("cpu_s_per_trial", median(cpuPerTrial), "s", timedTrials)
	// Latency is that of the pipetune jobs: fresh-remote's tune-v1 twins
	// are replays that exist to price sim_tuning_ratio, and pooling them
	// in would put the median in the gap between two modes.
	var lat []float64
	fetch := make([]float64, len(timed))
	for i, j := range timed {
		if j.spec.pipetune {
			lat = append(lat, j.latencySeconds())
		}
		fetch[i] = float64(j.t3-j.t2) / 1e6
	}
	res.set("job_latency_p50_s", median(lat), "s", len(lat))
	if v, ok := percentileOf(lat, 95); ok {
		res.set("job_latency_p95_s", v, "s", len(lat))
	}
	// A status read is GET /v1/jobs/{id} of a finished job, result
	// attached. Job workloads issue one per job (the result fetch);
	// status-read issues them back to back from client A.
	reads := fetch
	if p.lapReads > 0 {
		reads = make([]float64, len(r.reads))
		perLap := make([]float64, len(laps))
		for i, rd := range r.reads {
			reads[i] = float64(rd.end-rd.start) / 1e6
			perLap[rd.lap]++
		}
		for l, lap := range laps {
			perLap[l] /= float64(lap.end-lap.start) / 1e9
		}
		res.set("status_reads_per_s", median(perLap), "1/s", len(reads))
	}
	res.set("status_read_p50_ms", median(reads), "ms", len(reads))
	if v, ok := percentileOf(reads, 99); ok {
		res.set("status_read_p99_ms", v, "ms", len(reads))
	}
	res.set("peak_rss_mb", peakRSSMB(), "MB", 0)
	// What the daemon holds on to once the garbage is gone: caches, the
	// job registry, the ground truth. Unlike the resident-set peak it does
	// not depend on when the collector happened to run.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	res.set("live_heap_mb", float64(live.HeapAlloc)/(1<<20), "MB", 0)
	if ratio, n := simTuningRatio(r.jobs, timed); n > 0 {
		res.set("sim_tuning_ratio", ratio, "ratio", n)
	}
	for l := range laps {
		var inLap []jobRecord
		for _, j := range timed {
			if j.lap == l {
				inLap = append(inLap, j)
			}
		}
		lapDrift = append(lapDrift, drift(inLap))
	}
	res.set("drift.job_latency_ratio", median(lapDrift), "ratio", len(timed))
	if p.restoreGT {
		res.set("lap.spread", spread(jobRates), "ratio", len(laps))
	}

	// ---- counts, scraped from the public metrics page ------------------
	res.set("exec.lease_grants", delta(famLeaseGrants), "count", 0)
	res.set("exec.requeues", delta(famRequeues), "count", 0)
	res.set("exec.evictions", delta(famEvictions), "count", 0)
	res.set("service.sse_lagged", delta(famSSELagged), "count", 0)
	res.set("trainer.cache_hits", delta(famCacheHits), "count", 0)
	res.set("trainer.cache_misses", delta(famCacheMisses), "count", 0)
	res.set("trainer.cache_evictions", delta(famCacheEvicts), "count", 0)
	trained, saved := delta(famLocalEpochs), delta(famCacheSaved)
	if opt.workload.remote {
		// The worker's cache is worker-local and not on the daemon's
		// page; what the heartbeats do ship is every epoch record and
		// every real SGD epoch, and their difference is what replay saved.
		trained = delta(famWorkerEpochs)
		saved = delta(famWorkerRecords) - delta(famWorkerTrials) - trained
	}
	res.set("trainer.epochs_trained", trained, "count", 0)
	res.set("trainer.epochs_saved", saved, "count", 0)
	res.set("process.allocs_per_trial", float64(ms1.Mallocs-ms0.Mallocs)/float64(timedTrials), "count", timedTrials)
	res.set("process.alloc_kb_per_trial", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(timedTrials), "KB", timedTrials)
	res.set("process.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms", int(ms1.NumGC-ms0.NumGC))
	hits, misses := float64(gtAfter.Hits-gtBefore.Hits), float64(gtAfter.Misses-gtBefore.Misses)
	if hits+misses > 0 {
		res.set("gt.hit_ratio", hits/(hits+misses), "ratio", int(hits+misses))
	}
	res.set("gt.entries_end", float64(gtAfter.Entries), "count", 0)

	// ---- correctness gate ------------------------------------------------
	if p.restoreGT {
		// Recurring work replays training: a real SGD epoch, an eviction,
		// a requeue or a dropped stream inside the window means the run
		// measured something other than what the workload is for.
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"trainer.epochs_trained", trained},
			{"trainer.cache_misses", delta(famCacheMisses)},
			{"trainer.cache_evictions", delta(famCacheEvicts)},
			{"exec.requeues", delta(famRequeues)},
			{"exec.evictions", delta(famEvictions)},
			{"service.sse_lagged", delta(famSSELagged)},
		} {
			if c.v != 0 {
				g.fail("%s: %s = %v inside the timed window, want 0", opt.workload.name, c.name, c.v)
			}
		}
	}
	golden, err := loadGolden(goldenPath)
	switch {
	case opt.updateGolden:
		if len(g.violations) == 0 {
			err = mergeGolden(goldenPath, g.seen)
		}
	case err == nil:
		g.compare(golden)
	}
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	res.Digests = g.seen
	res.Violations = g.violations
	// Attempted: every job and every status read. Failed: those that did
	// not succeed (a job not done is one gate violation) plus every other
	// violation of the gate.
	res.Attempted = len(r.jobs) + r.readAttempts
	res.Failed = min(res.Attempted, r.readFailures+len(g.violations))
	res.Correct = res.Failed == 0
	res.set("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)

	// ---- per layer ---------------------------------------------------------
	if opt.traced {
		spans := resolveJobs(t.snapshot(), r.jobs, t)
		attribute(res, t, spans, timed, r)
		if err := runProbes(ctx, res, r, t.harvested(), dir); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if opt.traceOut != "" {
			if err := writeChromeTrace(opt.traceOut, spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// simTuningRatio is the paper's headline through the daemon: simulated
// tuning time of the window's pipetune jobs over that of their tune-v1
// twins (same workload and seed; the twin ran in the window on
// fresh-remote and in warm-up on the recurring sets — its tuning time
// depends on neither cache nor ground truth).
func simTuningRatio(all, timed []jobRecord) (ratio float64, pairs int) {
	v1 := map[string]float64{}
	for _, j := range all {
		if !j.spec.pipetune && j.status.Result != nil {
			v1[j.spec.trainKey()] = j.status.Result.TuningTime
		}
	}
	var pt, base float64
	for _, j := range timed {
		if b, ok := v1[j.spec.trainKey()]; ok && j.spec.pipetune {
			pt += j.status.Result.TuningTime
			base += b
			pairs++
		}
	}
	if base == 0 {
		return 0, 0
	}
	return pt / base, pairs
}

// drift compares the last quarter of a lap's jobs with the first: above
// 1 means the daemon got slower as its state grew.
func drift(timed []jobRecord) float64 {
	byStart := append([]jobRecord(nil), timed...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].t0 < byStart[j].t0 })
	q := len(byStart) / 4
	if q == 0 {
		return 1
	}
	lat := func(js []jobRecord) []float64 {
		out := make([]float64, len(js))
		for i, j := range js {
			out[i] = j.latencySeconds()
		}
		return out
	}
	first := median(lat(byStart[:q]))
	if first == 0 {
		return 1
	}
	return median(lat(byStart[len(byStart)-q:])) / first
}

// cpuSeconds is the process's user+system CPU time (getrusage). The
// in-process worker agent is inside it, which is the point: it is the
// host-side analogue of the paper's energy column.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resolveJobs gives every span the id of the job it worked for and adds
// the service-side spans that exist only as JobStatus timestamps. A span
// recorded behind the seam knows its job's spec, not its id; it belongs
// to the job of that spec that was between Submitted and Finished when
// the span started.
func resolveJobs(spans []span, jobs []jobRecord, t *tracer) []span {
	type life struct {
		id         string
		from, till int64
	}
	bySpec := map[string][]life{}
	byClientSpan := map[int64]string{}
	for _, j := range jobs {
		if j.err != nil || j.status.Started == nil || j.status.Finished == nil {
			continue
		}
		sub, started, fin := t.since(j.status.Submitted), t.since(*j.status.Started), t.since(*j.status.Finished)
		bySpec[j.spec.key()] = append(bySpec[j.spec.key()], life{j.id, j.t0, j.t3})
		spans = append(spans,
			span{Name: spanQueue, Start: sub, End: started, Key: j.spec.key(), Job: j.id},
			span{Name: spanRun, Start: started, End: fin, Key: j.spec.key(), Job: j.id},
			span{Name: spanNotify, Start: fin, End: j.t2, Key: j.spec.key(), Job: j.id},
		)
	}
	for i := range spans {
		s := &spans[i]
		if s.ID == 0 {
			s.ID = t.nextID.Add(1)
		}
		if s.Job != "" {
			byClientSpan[s.ID] = s.Job
			continue
		}
		for _, l := range bySpec[s.Key] {
			if s.Start >= l.from && s.Start <= l.till {
				s.Job = l.id
				break
			}
		}
	}
	for i := range spans { // handler spans inherit the job of the client span that caused them
		if s := &spans[i]; s.Job == "" && s.Parent != 0 {
			s.Job = byClientSpan[s.Parent]
		}
	}
	return spans
}

// jobShares is one job's latency split along its blocking chain. The
// five segments are consecutive by construction; run is then split by
// what covered it.
type jobShares struct {
	latency, submit, queue, run, notify, fetch float64
	exec, core, gt, tuneSelf                   float64
	gtLookup                                   float64 // the part of gt that is lookups (refits hide here); the rest is adds
}

// splitRun applies the self-time rule inside one job's run segment: a
// layer's self time is its span's length minus what its children cover.
// exec.run spans and gt.add spans are children of the run; core.on_epoch
// spans are children of exec.run; gt.lookup spans of core.on_epoch.
func splitRun(run interval, execRuns, onEpochs, lookups, adds []interval) (exec, core, gtLookup, gtAdd, tuneSelf float64) {
	covExec := coverage(run, execRuns)
	covCore := coverage(run, onEpochs)
	covLookup := coverage(run, lookups)
	covAdd := coverage(run, adds)
	total := run.end - run.start
	return float64(covExec - covCore), float64(covCore - covLookup), float64(covLookup), float64(covAdd),
		float64(total - covExec - covAdd)
}

func clip0(v int64) float64 {
	if v < 0 {
		return 0
	}
	return float64(v)
}

// attribute turns the spans into the per-layer seam metrics and the
// share.* table.
func attribute(res *result, t *tracer, spans []span, timed []jobRecord, r *run) {
	byJob := map[string]map[string][]span{}
	byParent := map[int64]span{} // handler span by the client span that caused it
	var lookupsUs, addsUs, onEpochUs, execMs, httpSubmitMs, httpStatusMs []float64
	batchTrials := 0
	for _, s := range spans {
		if s.Job != "" {
			m := byJob[s.Job]
			if m == nil {
				m = map[string][]span{}
				byJob[s.Job] = m
			}
			m[s.Name] = append(m[s.Name], s)
		}
		if (s.Name == spanHTTPStatus || s.Name == spanHTTPSubmit) && s.Parent != 0 {
			byParent[s.Parent] = s
		}
	}
	ivs := func(ss []span) []interval {
		out := make([]interval, len(ss))
		for i, s := range ss {
			out[i] = s.interval()
		}
		return out
	}
	var sum jobShares
	var selfMs, submitMs, queueMs, runMs, notifyMs, fetchMs, overheadMs []float64
	// statusRead pairs one client-side GET /v1/jobs/{id} with the handler
	// span it caused: what the handler took, and what the client paid on top.
	statusRead := func(client span) {
		if h, ok := byParent[client.ID]; ok {
			hd := float64(h.End-h.Start) / 1e6
			httpStatusMs = append(httpStatusMs, hd)
			overheadMs = append(overheadMs, float64(client.End-client.Start)/1e6-hd)
		}
	}
	batches := 0
	for _, j := range timed {
		m := byJob[j.id]
		sub, started, fin := t.since(j.status.Submitted), t.since(*j.status.Started), t.since(*j.status.Finished)
		js := jobShares{
			latency: float64(j.t3 - j.t0),
			submit:  clip0(sub - j.t0),
			queue:   clip0(started - sub),
			run:     clip0(fin - started),
			notify:  clip0(j.t2 - fin),
			fetch:   clip0(j.t3 - j.t2),
		}
		var gtAdd float64
		js.exec, js.core, js.gtLookup, gtAdd, js.tuneSelf = splitRun(interval{started, fin},
			ivs(m[spanExecRun]), ivs(m[spanOnEpoch]), ivs(m[spanGTLookup]), ivs(m[spanGTAdd]))
		js.gt = js.gtLookup + gtAdd
		sum.gtLookup += js.gtLookup
		sum.latency += js.latency
		sum.submit += js.submit
		sum.queue += js.queue
		sum.notify += js.notify
		sum.fetch += js.fetch
		sum.exec += js.exec
		sum.core += js.core
		sum.gt += js.gt
		sum.tuneSelf += js.tuneSelf

		selfMs = append(selfMs, js.tuneSelf/1e6)
		submitMs = append(submitMs, float64(j.t1-j.t0)/1e6)
		queueMs = append(queueMs, js.queue/1e6)
		runMs = append(runMs, js.run/1e6)
		notifyMs = append(notifyMs, js.notify/1e6)
		fetchMs = append(fetchMs, js.fetch/1e6)
		batches += len(m[spanExecRun])
		for _, s := range m[spanExecRun] {
			execMs = append(execMs, float64(s.End-s.Start)/1e6)
			batchTrials += s.N
		}
		for _, s := range m[spanOnEpoch] {
			onEpochUs = append(onEpochUs, float64(s.End-s.Start)/1e3)
		}
		for _, s := range m[spanGTLookup] {
			lookupsUs = append(lookupsUs, float64(s.End-s.Start)/1e3)
		}
		for _, s := range m[spanGTAdd] {
			addsUs = append(addsUs, float64(s.End-s.Start)/1e3)
		}
		for _, s := range m[spanClientSubmit] {
			if h, ok := byParent[s.ID]; ok {
				httpSubmitMs = append(httpSubmitMs, float64(h.End-h.Start)/1e6)
			}
		}
		if fetch := m[spanClientFetch]; len(r.reads) == 0 && len(fetch) > 0 {
			statusRead(fetch[0])
		}
	}
	if len(r.reads) > 0 { // status-read: the reads are client A's, not the result fetches
		for _, s := range spans {
			if s.Name == spanClientRead {
				statusRead(s)
			}
		}
	}

	n := len(timed)
	res.set("client.submit_ms", median(submitMs), "ms", n)
	res.set("service.http_submit_ms", median(httpSubmitMs), "ms", len(httpSubmitMs))
	res.set("service.queue_wait_ms", median(queueMs), "ms", n)
	res.set("service.run_ms", median(runMs), "ms", n)
	res.set("service.notify_lag_ms", median(notifyMs), "ms", n)
	res.set("client.result_fetch_ms", median(fetchMs), "ms", n)
	res.set("service.http_status_ms", median(httpStatusMs), "ms", len(httpStatusMs))
	res.set("client.status_overhead_ms", median(overheadMs), "ms", len(overheadMs))
	res.set("exec.run_ms", median(execMs), "ms", len(execMs))
	res.set("exec.batches_per_job", float64(batches)/float64(n), "count", n)
	if batches > 0 {
		res.set("exec.trials_per_batch", float64(batchTrials)/float64(batches), "count", batches)
	}
	res.set("core.on_epoch_us", median(onEpochUs), "us", len(onEpochUs))
	res.set("core.on_epoch_calls", float64(len(onEpochUs)), "count", 0)
	res.set("gt.lookup_p50_us", median(lookupsUs), "us", len(lookupsUs))
	if v, ok := percentileOf(lookupsUs, 99); ok {
		res.set("gt.lookup_p99_us", v, "us", len(lookupsUs))
	}
	res.set("gt.add_us", median(addsUs), "us", len(addsUs))
	res.set("gt.lookup_share", sum.gtLookup/sum.latency, "ratio", len(lookupsUs))
	res.set("gt.add_share", (sum.gt-sum.gtLookup)/sum.latency, "ratio", len(addsUs))
	res.set("gt.lookups", float64(len(lookupsUs)), "count", 0)
	res.set("gt.adds", float64(len(addsUs)), "count", 0)
	res.set("tune.self_ms", median(selfMs), "ms", n)

	share := func(name string, part float64) {
		res.set("share."+name, part/sum.latency, "ratio", n)
	}
	share("submit", sum.submit)
	share("queue", sum.queue)
	share("exec", sum.exec)
	share("core", sum.core)
	share("gt", sum.gt)
	share("tune_self", sum.tuneSelf)
	share("notify", sum.notify)
	share("fetch", sum.fetch)
	attributed := sum.submit + sum.queue + sum.exec + sum.core + sum.gt + sum.tuneSelf + sum.notify + sum.fetch
	share("unattributed", sum.latency-attributed)
}
