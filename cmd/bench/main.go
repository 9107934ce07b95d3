// Command bench is the repository's one benchmark: a single-process
// harness that boots a real in-process pipetuned (service + HTTP API on a
// loopback listener, sharded WAL-backed ground truth, metrics on, trial
// cache on) and — for remote workloads — one in-process worker agent on
// the binary stream, then drives seeded job traces through the public
// client exactly as a tenant would and reports what that tenant saw,
// plus, in a separate traced run, which layer the time went to.
//
// One workload, one fresh process (the contract BENCHMARK.json states):
//
//	go run ./cmd/bench --workload recurring-local --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics as the last line of standard output;
// --trace 1 repeats the workload with the seam decorators on and prints
// the per-layer metrics instead. Without --workload the command runs all
// four workloads, traced and untraced, each in a fresh process, and
// prints every metric by name with unit and sample count (-json for a
// machine-readable report). -aa N measures run-to-run noise as the driver
// does (two sets of N runs per workload) and writes
// the confirmed regression bounds into BENCHMARK.json. README.md in this
// directory is the glossary.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// benchmarkPath is the benchmark's declaration at the repository root:
// which metrics are end-to-end (bounded) and which per-layer. The
// program prints exactly the metrics it names.
const benchmarkPath = "BENCHMARK.json"

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []boundedDecl  `json:"end_to_end"`
	PerLayer   []layerDecl    `json:"per_layer"`
}

func loadBenchmark() (*benchmarkFile, error) {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	return &bf, nil
}

func (bf *benchmarkFile) why(workload string) string {
	for _, w := range bf.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

func (bf *benchmarkFile) save() error {
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchmarkPath, append(data, '\n'), 0o644)
}

// resultLine is the last line of standard output the driver parses.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Prefixes of the detail lines a run prints before its result line, for
// the all-workloads report and the A/A mode to parse.
const (
	detailPrefix   = "#detail "
	untracedPrefix = "#untraced "
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload     = flag.String("workload", "", "run this one workload in this process (fresh-remote, recurring-remote, recurring-local, status-read); empty runs all four, each in a fresh process")
		seed         = flag.Uint64("seed", 1, "trace seed: the same seed gives the same job requests")
		seconds      = flag.Int("seconds", 10, "how long a run measures on the reference box; work is fixed by count, scaled from this")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut     = flag.String("trace-out", "", "with --trace 1: write the spans here as Chrome trace-event JSON")
		asJSON       = flag.Bool("json", false, "all-workloads report as JSON")
		aa           = flag.Int("aa", 0, "A/A mode: N fresh-process runs per workload; prints spreads and writes confirmed bounds into BENCHMARK.json")
		updateGolden = flag.Bool("update-golden", false, "record this run's digests in cmd/bench/testdata/golden.json instead of checking them")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *seconds > 60 {
		return errors.New("--seconds must be 1..60")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	bf, err := loadBenchmark()
	if err != nil {
		return err
	}
	switch {
	case *aa > 0:
		return runAA(bf, *aa, *seed, *seconds)
	case *workload == "":
		return runAll(bf, *seed, *seconds, *asJSON, *updateGolden, *traceOut)
	}
	wl, ok := workloadByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	opt := runOptions{workload: wl, seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut, updateGolden: *updateGolden}
	return runOne(bf, opt)
}

// runOne is the driver's entry: one workload in this process, the result
// line last. A traced run first runs the same workload untraced in a
// fresh child process: end-to-end numbers always come from untraced
// runs, and the difference between the two is the tracing overhead.
func runOne(bf *benchmarkFile, opt runOptions) error {
	var untraced *result
	if opt.traced {
		child, _, err := spawn(opt.workload.name, opt.seed, opt.seconds, false)
		if err != nil {
			return fmt.Errorf("untraced reference run: %w", err)
		}
		untraced = child
	}
	res, err := runWorkload(opt)
	if err != nil {
		return err
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	if opt.traced {
		// CPU per trial, not throughput: tracing adds work, and CPU time
		// sees added work with far less noise than a wall clock on a
		// shared box.
		base, traced := untraced.Metrics["cpu_s_per_trial"].Value, res.Metrics["cpu_s_per_trial"].Value
		res.set("trace.overhead_pct", (traced-base)/base*100, "%", 0)
		for _, decl := range bf.PerLayer {
			// A per-layer name that is an end-to-end metric by nature
			// (demoted by the A/A run) is still taken from the untraced
			// run. A metric the workload does not define reads 0.
			m, ok := untraced.Metrics[decl.Name]
			if !ok || !isEndToEnd(decl.Name) {
				m = res.Metrics[decl.Name]
			}
			line.Metrics[decl.Name] = lineMetric{Value: m.Value, Unit: decl.Unit}
		}
		if err := printDetail(untracedPrefix, untraced); err != nil {
			return err
		}
		line.Correct = line.Correct && untraced.Correct
	} else {
		for _, decl := range bf.EndToEnd {
			m, ok := res.Metrics[decl.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s is not defined on %s", decl.Name, opt.workload.name)
			}
			line.Metrics[decl.Name] = lineMetric{Value: m.Value, Unit: decl.Unit}
		}
	}
	if err := printDetail(detailPrefix, res); err != nil {
		return err
	}
	for _, v := range res.Violations {
		fmt.Fprintln(os.Stderr, "bench: violation:", v)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%s: correctness gate failed (%d of %d)", opt.workload.name, res.Failed, res.Attempted)
	}
	return nil
}

// endToEnd are the metrics a user of pipetuned would see: which way is
// better, and the regression bound ISSUE 12 proposed for each (the A/A
// run may only widen it). Which of them BENCHMARK.json bounds is decided
// by the A/A run.
var endToEnd = map[string]struct {
	lowerIsBetter bool
	boundFloor    float64
}{
	"setup_s":            {true, 0.15},
	"jobs_per_s":         {false, 0.07},
	"trials_per_s":       {false, 0.07},
	"job_latency_p50_s":  {true, 0.07},
	"job_latency_p95_s":  {true, 0.10},
	"status_reads_per_s": {false, 0.07},
	"status_read_p50_ms": {true, 0.07},
	"status_read_p99_ms": {true, 0.10},
	"cpu_s_per_trial":    {true, 0.07},
	"peak_rss_mb":        {true, 0.10},
	"live_heap_mb":       {true, 0.05},
	"sim_tuning_ratio":   {true, 0.02},
	"failed_ratio":       {true, 0},
}

func isEndToEnd(name string) bool {
	_, ok := endToEnd[name]
	return ok
}

func printDetail(prefix string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(prefix + string(data))
	return nil
}

// spawn runs one workload in a fresh process — this binary again — so
// caches, GC state and resident memory never leak between runs, and
// returns its detail report; of a traced child also the untraced
// reference it ran.
func spawn(workload string, seed uint64, seconds int, traced bool, extra ...string) (res, untraced *result, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := append([]string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", tr}, extra...)
	cmd := osexec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to end
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		for prefix, dst := range map[string]**result{detailPrefix: &res, untracedPrefix: &untraced} {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				var r result
				if err := json.Unmarshal([]byte(rest), &r); err != nil {
					return nil, nil, fmt.Errorf("%s run of %s: bad detail line: %w", tr, workload, err)
				}
				*dst = &r
			}
		}
	}
	if runErr != nil {
		return res, untraced, fmt.Errorf("%s --trace %s: %w", workload, tr, runErr)
	}
	if res == nil {
		return nil, nil, fmt.Errorf("%s --trace %s printed no detail line", workload, tr)
	}
	return res, untraced, nil
}

// environment is the block every report carries, so numbers from two
// boxes are never compared by accident.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Revision   string `json:"revision"`
	TempFS     string `json:"tempDirFilesystem"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown", TempFS: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Revision = s.Value
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(".", &st); err == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if name, ok := names[int64(st.Type)]; ok {
			env.TempFS = name
		} else {
			env.TempFS = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return env
}

// fullReport is the -json output of the all-workloads mode.
type fullReport struct {
	Env       environment       `json:"env"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Workloads []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name     string            `json:"name"`
	Why      string            `json:"why"`
	Correct  bool              `json:"correct"`
	EndToEnd map[string]metric `json:"endToEnd"` // untraced run
	PerLayer map[string]metric `json:"perLayer"` // traced run
}

// runAll is `go run ./cmd/bench`: every workload, traced and untraced,
// each in a fresh process; every metric by name with unit and n; and the
// cross-workload half of the correctness gate — a (workload, seed) must
// train the same thing in every workload that runs it.
func runAll(bf *benchmarkFile, seed uint64, seconds int, asJSON, updateGolden bool, traceOut string) error {
	rep := fullReport{Env: readEnvironment(), Seed: seed, Seconds: seconds}
	crossGate := newGate()
	ok := true
	for _, wl := range workloads {
		var extra []string
		if updateGolden {
			extra = append(extra, "--update-golden")
		}
		if traceOut != "" {
			extra = append(extra, "--trace-out", strings.TrimSuffix(traceOut, ".json")+"."+wl.name+".json")
		}
		traced, untraced, err := spawn(wl.name, seed, seconds, true, extra...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
		if traced == nil || untraced == nil {
			continue
		}
		wr := workloadResults{Name: wl.name, Why: bf.why(wl.name), Correct: traced.Correct && untraced.Correct,
			EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
		for name, m := range untraced.Metrics {
			if isEndToEnd(name) {
				wr.EndToEnd[name] = m
			}
		}
		for name, m := range traced.Metrics {
			if !isEndToEnd(name) {
				wr.PerLayer[name] = m
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
		for _, r := range []*result{untraced, traced} {
			for key, d := range r.Digests {
				crossGate.merge(wl.name, key, d)
			}
		}
	}
	for _, v := range crossGate.violations {
		fmt.Fprintln(os.Stderr, "bench: violation:", v)
		ok = false
	}
	if asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		printReport(rep)
	}
	if !ok {
		return errors.New("one or more workloads failed")
	}
	return nil
}

func printReport(rep fullReport) {
	e := rep.Env
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s revision=%s tempfs=%s seed=%d seconds=%d\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Revision, e.TempFS, rep.Seed, rep.Seconds)
	for _, w := range rep.Workloads {
		fmt.Printf("\n== %s (correct=%v) — %s\n", w.Name, w.Correct, w.Why)
		for _, section := range []struct {
			title string
			ms    map[string]metric
		}{{"end-to-end (untraced run)", w.EndToEnd}, {"per layer (traced run)", w.PerLayer}} {
			fmt.Printf("-- %s\n", section.title)
			names := make([]string, 0, len(section.ms))
			for name := range section.ms {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := section.ms[name]
				fmt.Printf("  %-32s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
			}
		}
	}
}
