package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"pipetune/internal/admission"
	"pipetune/internal/cluster"
	"pipetune/internal/costmodel"
	"pipetune/internal/energy"
	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/sched"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/tsdb"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// The layer probes price each layer alone, through its public functions,
// on inputs the run itself produced: the trial bodies of the first
// pipetune job per catalog workload, harvested by the backend decorator.
// They run after the window on the still-warm daemon. Every probe is
// repeated probeReps times and reports the median, so one stall (a GC
// cycle, a slow fsync) does not become the number.
const probeReps = 5

// prober collects the first error of a probe sequence, so the probes
// read as straight-line code.
type prober struct {
	res *result
	err error
}

func (p *prober) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// perCall runs f in batches of n calls, probeReps batches, and returns
// the median batch's time per call.
func perCall(n int, f func()) time.Duration {
	batches := make([]float64, probeReps)
	for b := range batches {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches[b] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(batches))
}

// allocsOf runs f and returns the heap allocations and bytes it made.
// Other goroutines are idle while the probes run, so the process-wide
// counters are f's own to within noise.
func allocsOf(f func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// probeTrainer is a trainer configured like the daemon's, with its own
// cache (or none).
func probeTrainer(cacheBytes int64) *trainer.Runner {
	tr := trainer.NewRunner()
	if cacheBytes > 0 {
		tr.Cache = trainer.NewTrialCache(cacheBytes)
	}
	return tr
}

// of returns the harvested trials of one workload, by trial id.
func of(harvest []exec.Trial, w workload.Workload) []exec.Trial {
	var out []exec.Trial
	for _, t := range harvest {
		if t.Workload == w {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func runProbes(ctx context.Context, res *result, r *run, harvest []exec.Trial, dir string) error {
	p := &prober{res: res}
	lenet := of(harvest, workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST})
	if len(lenet) == 0 {
		return errors.New("no lenet/mnist trial harvested")
	}
	p.trainer(lenet)
	for _, w := range []workload.Workload{
		{Model: workload.LeNet5, Dataset: workload.MNIST},
		{Model: workload.CNN, Dataset: workload.News20},
		{Model: workload.LSTM, Dataset: workload.News20},
	} {
		p.kernels(of(harvest, w), w)
	}
	p.simulationHalf(lenet)
	p.backends(ctx, r.d, lenet)
	p.schedSearchAdmission()
	p.groundTruth(r.d, dir)
	p.service(ctx, r)
	return p.err
}

// trainer prices a trial as a miss, as a hit (= the simulation half), and
// what the cache adds to a miss.
func (p *prober) trainer(trials []exec.Trial) {
	n := float64(len(trials))
	pass := func(tr *trainer.Runner) time.Duration {
		start := time.Now()
		for _, t := range trials {
			_, err := tr.RunWithCacheKey(t.Workload, t.Hyper, t.Sys, t.Seed, nil, t.CacheKey)
			p.check(err)
		}
		return time.Since(start)
	}
	// corpus synthesises the trainer's corpus with a throwaway one-epoch
	// trial under a seed no harvested trial has, so that a miss is SGD
	// and cache insertion, not data generation.
	corpus := func(tr *trainer.Runner) *trainer.Runner {
		t := trials[0]
		t.Hyper.Epochs = 1
		_, err := tr.Run(t.Workload, t.Hyper, t.Sys, ^t.Seed, nil)
		p.check(err)
		return tr
	}
	var miss, hit, bare, missAllocs, hitAllocs, hitBytes []float64
	for rep := 0; rep < probeReps; rep++ {
		cached := corpus(probeTrainer(trialCacheSize))
		var d time.Duration
		m, _ := allocsOf(func() { d = pass(cached) })
		miss, missAllocs = append(miss, float64(d)), append(missAllocs, m)
		m, b := allocsOf(func() { d = pass(cached) })
		hit, hitAllocs, hitBytes = append(hit, float64(d)), append(hitAllocs, m), append(hitBytes, b)
		bare = append(bare, float64(pass(corpus(probeTrainer(0)))))
	}
	ms := func(xs []float64) float64 { return median(xs) / 1e6 / n }
	p.res.set("trainer.trial_miss_ms", ms(miss), "ms", len(trials))
	p.res.set("trainer.trial_hit_ms", ms(hit), "ms", len(trials))
	p.res.set("trainer.cache_insert_ms", ms(miss)-ms(bare), "ms", len(trials))
	p.res.set("trainer.miss_allocs", median(missAllocs)/n, "count", len(trials))
	p.res.set("trainer.hit_allocs", median(hitAllocs)/n, "count", len(trials))
	p.res.set("trainer.hit_kb", median(hitBytes)/1024/n, "KB", len(trials))
}

// kernels prices one real SGD epoch and one test-set evaluation of a
// model, read off the trainer's own kernel sketches.
func (p *prober) kernels(trials []exec.Trial, w workload.Workload) {
	if len(trials) == 0 {
		p.check(fmt.Errorf("no %s trial harvested", w.Name()))
		return
	}
	t := trials[0]
	t.Hyper.Epochs = 1
	tr := probeTrainer(0)
	var epochs, evals []float64
	for rep := 0; rep < probeReps; rep++ {
		epoch, eval := metrics.NewDistribution(), metrics.NewDistribution()
		tr.InstrumentKernels(epoch, eval)
		_, err := tr.Run(t.Workload, t.Hyper, t.Sys, t.Seed, nil)
		p.check(err)
		epochs, evals = append(epochs, epoch.Sum()), append(evals, eval.Sum())
	}
	model := w.Model.String()
	p.res.set("nn.train_epoch_ms."+model, median(epochs)*1e3, "ms", probeReps)
	p.res.set("nn.eval_ms."+model, median(evals)*1e3, "ms", probeReps)
}

// simulationHalf prices the four parts a cache-hit trial still pays per
// epoch: the PMU profile, the power series and its integral, the cost
// model, and a tsdb write.
func (p *prober) simulationHalf(trials []exec.Trial) {
	t := trials[0]
	traits := workload.TraitsFor(t.Workload)
	cost := costmodel.Default()
	dur, err := cost.EpochDuration(traits, t.Hyper, t.Sys)
	p.check(err)
	rng := xrand.New(t.Seed)
	sampler := perf.NewSampler()
	const simCalls = 100
	p.res.set("perf.epoch_profile_us", float64(perCall(simCalls, func() {
		_, err := sampler.EpochProfile(rng, traits, t.Hyper, t.Sys, perf.PhaseTrain, dur)
		p.check(err)
	}))/1e3, "us", simCalls)
	power := energy.DefaultPowerModel()
	p.res.set("energy.series_us", float64(perCall(simCalls, func() {
		series, err := power.Series(rng, t.Sys, 0.7, dur)
		p.check(err)
		energy.Integrate(series)
	}))/1e3, "us", simCalls)
	const cheapCalls = 10000
	p.res.set("costmodel.epoch_breakdown_ns", float64(perCall(cheapCalls, func() {
		_, err := cost.EpochBreakdown(traits, t.Hyper, t.Sys)
		p.check(err)
	})), "ns", cheapCalls)
	db := tsdb.New()
	tags := map[string]string{"trial": "1", "workload": t.Workload.Name()}
	at := 0.0
	p.res.set("tsdb.write_us", float64(perCall(cheapCalls, func() {
		at++
		p.check(db.Write("power", tsdb.Point{Time: at, Tags: tags, Fields: map[string]float64{"watts": 200}}))
	}))/1e3, "us", cheapCalls)
}

// backends prices what a backend adds to a cache-hit trial: the same
// warm bodies, one at a time, directly on a trainer and through
// Backend.Run. The remote row goes through the live daemon's Remote and
// its agent, whose cache holds these trials already; the bytes are
// counted on the daemon's listener.
func (p *prober) backends(ctx context.Context, d *daemon, trials []exec.Trial) {
	n := float64(len(trials))
	warm := probeTrainer(trialCacheSize)
	direct := func() {
		for _, t := range trials {
			_, err := warm.RunWithCacheKey(t.Workload, t.Hyper, t.Sys, t.Seed, nil, t.CacheKey)
			p.check(err)
		}
	}
	direct() // fills the probe trainer's cache
	through := func(b exec.Backend) func() {
		return func() {
			for _, t := range trials {
				_, errs := b.Run(ctx, []exec.Trial{t}, 1)
				p.check(errs[0])
			}
		}
	}
	base := perCall(1, direct)
	local := perCall(1, through(exec.NewLocal(warm)))
	p.res.set("exec.local_overhead_us", float64(local-base)/1e3/n, "us", len(trials))
	if d.remote != nil {
		wire0 := d.wireBytes.Load()
		remote := perCall(1, through(d.remote))
		p.res.set("exec.remote_overhead_us", float64(remote-base)/1e3/n, "us", len(trials))
		p.res.set("exec.wire_bytes_per_trial", float64(d.wireBytes.Load()-wire0)/probeReps/n, "B", len(trials))
	}
}

// schedSearchAdmission prices the three in-memory decision layers on
// synthetic load: 500 tasks over the EC2 fleet, one HyperBand job's
// ask/tell, and a FIFO push+pop.
func (p *prober) schedSearchAdmission() {
	classes, err := cluster.EC2Fleet(1, 0.5, 2)
	p.check(err)
	fleet, err := cluster.NewClasses(classes)
	if err != nil {
		p.check(err)
		return
	}
	const schedTasks = 500
	tasks := make([]sched.Task, schedTasks)
	arrive := xrand.New(11)
	at := 0.0
	for i := range tasks {
		at += arrive.ExpFloat64() * 5
		tasks[i] = sched.Task{
			ID: i, Arrival: at,
			Sys:      params.SysConfig{Cores: 4 + int(arrive.Uint64()%13), MemoryGB: 4 + int(arrive.Uint64()%29)},
			Duration: 50 + arrive.Float64()*200,
		}
	}
	schedule := func() {
		eng := sched.New(fleet.SchedPool(), sched.FIFO(), 0)
		for _, t := range tasks {
			p.check(eng.Submit(t, nil))
		}
		p.check(eng.Run())
	}
	p.res.set("sched.task_us", float64(perCall(1, schedule))/1e3/schedTasks, "us", schedTasks)
	schedAllocs, _ := allocsOf(schedule)
	p.res.set("sched.allocs_per_task", schedAllocs/schedTasks, "count", schedTasks)

	const searchJobs = 20
	p.res.set("search.hyperband_job_us", float64(perCall(searchJobs, func() {
		s, err := search.NewHyperBand(params.PaperHyperSpace(), 9, 3, xrand.New(7))
		if err != nil {
			p.check(err)
			return
		}
		for b := s.Next(); len(b) > 0; b = s.Next() {
			reports := make([]search.Report, len(b))
			for i, sg := range b {
				reports[i] = search.Report{ID: sg.ID, Score: float64(sg.ID%7) / 7}
			}
			s.Observe(reports)
		}
	}))/1e3, "us", searchJobs)

	q, err := admission.New(admission.Config{Policy: admission.PolicyFIFO})
	if err != nil {
		p.check(err)
		return
	}
	const admissionOps = 10000
	k := 0
	p.res.set("admission.push_pop_ns", float64(perCall(admissionOps, func() {
		k++
		p.check(q.Push(admission.Job{ID: strconv.Itoa(k), Tenant: "default", Cost: 1}))
		q.Pop()
	})), "ns", admissionOps)
}

// groundTruth prices a pure lookup against a quiescent sharded store of
// 1 000 entries (the run's own profiles, jittered), and an Add through
// the WAL with its fsync.
func (p *prober) groundTruth(d *daemon, dir string) {
	entries := d.sys.GroundTruth().Entries()
	if len(entries) == 0 {
		p.check(errors.New("ground truth is empty after the window"))
		return
	}
	store := gt.NewSharded(gt.DefaultConfig(), masterSeed)
	const gtEntries = 1000
	jitter := xrand.New(3)
	for i := 0; i < gtEntries; i++ {
		e := entries[i%len(entries)]
		f := append([]float64(nil), e.Features...)
		for j := range f {
			f[j] += (jitter.Float64() - 0.5) * 0.01
		}
		p.check(store.Add(gt.Entry{Features: f, BestSys: e.BestSys, Metric: e.Metric}))
	}
	for _, e := range entries {
		store.Lookup(e.Features) // pay the deferred refits before timing
	}
	const gtLookups = 10000
	j := 0
	p.res.set("gt.pure_lookup_ns", float64(perCall(gtLookups, func() {
		store.Lookup(entries[j%len(entries)].Features)
		j++
	})), "ns", gtLookups)

	wal, err := gt.OpenPersistent(filepath.Join(dir, "probe-gt.json"), gt.NewSharded(gt.DefaultConfig(), masterSeed), gt.PersistOptions{})
	if err != nil {
		p.check(err)
		return
	}
	const walAdds = 20
	p.res.set("gt.wal_add_us", float64(perCall(walAdds, func() {
		p.check(wal.Add(entries[j%len(entries)]))
		j++
	}))/1e3, "us", walAdds)
	p.check(wal.Close())
}

// service prices the registry without HTTP — a status lookup (which
// deep-clones the result) and a whole recurring job from Submit to the
// terminal event via Subscribe — and one scrape of the metrics page.
func (p *prober) service(ctx context.Context, r *run) {
	var doneID string
	var recurring jobSpec
	for _, jr := range r.jobs {
		if jr.err == nil && jr.spec.pipetune {
			doneID, recurring = jr.id, jr.spec
		}
	}
	const lookups = 1000
	p.res.set("service.job_lookup_us", float64(perCall(lookups, func() {
		_, err := r.d.svc.Job(doneID)
		p.check(err)
	}))/1e3, "us", lookups)
	p.res.set("service.dispatch_ms", float64(perCall(1, func() {
		st, err := r.d.svc.Submit(recurring.req)
		if err != nil {
			p.check(err)
			return
		}
		su, err := r.d.svc.Subscribe(st.ID)
		if err != nil {
			p.check(err)
			return
		}
		for range su.Events { // closes after the terminal event
		}
		su.Cancel()
	}))/1e6, "ms", probeReps)
	const scrapes = 10
	p.res.set("metrics.scrape_ms", float64(perCall(scrapes, func() {
		_, err := r.d.scrape(ctx)
		p.check(err)
	}))/1e6, "ms", scrapes)
}
