package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// The A/A run does what the driver does to accept the benchmark: two
// sets of N fresh-process runs per workload, every run on another seed.
// A metric's noise is the larger of its run-to-run spread inside a set
// (interquartile distance over median) and the amount by which the
// second set's median is worse than the first's.
//
// A bound is boundHeadroom times the noise, never below what ISSUE 12
// proposed and never above maxBound. A metric noisier than demoteAbove —
// ISSUE 12's rule: "a candidate whose A/A spread exceeds 10 % is demoted
// to the per-layer list, not kept" — or undefined or 0 on some workload is
// not bounded at all: it stays measured (untraced) and printed, without a
// gate that would fire on the box's mood. setup_s is exempt — the driver
// requires it, at the largest bound.
const (
	aaSets        = 2
	maxBound      = 0.25
	boundHeadroom = 3.0
	demoteAbove   = 0.10
)

// worseBy is how much worse b is than a, as a share of a (0 if better).
func worseBy(name string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (a - b) / a
	if endToEnd[name].lowerIsBetter {
		d = -d
	}
	return math.Max(0, d)
}

// runAA is -aa N. It prints, per end-to-end metric and workload, each
// set's median and spread and the shift between the sets, and rewrites
// BENCHMARK.json with the bounds the numbers support.
func runAA(bf *benchmarkFile, n int, seed uint64, seconds int) error {
	// values[metric][workload][set] = one value per run
	values := map[string]map[string][][]float64{}
	units := map[string]string{}
	for set := 0; set < aaSets; set++ {
		for _, wl := range workloads {
			for i := 0; i < n; i++ {
				s := seed + uint64(set*n+i)
				res, _, err := spawn(wl.name, s, seconds, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: correctness gate failed", wl.name, s)
				}
				for name, m := range res.Metrics {
					if !isEndToEnd(name) {
						continue
					}
					if values[name] == nil {
						values[name] = map[string][][]float64{}
					}
					if values[name][wl.name] == nil {
						values[name][wl.name] = make([][]float64, aaSets)
					}
					values[name][wl.name][set] = append(values[name][wl.name][set], m.Value)
					units[name] = m.Unit
				}
				fmt.Fprintf(os.Stderr, "bench: aa set %d/%d %s run %d/%d done\n", set+1, aaSets, wl.name, i+1, n)
			}
		}
	}

	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-20s %-17s %11s %8s %11s %8s %8s\n", "metric", "workload", "median 1", "spread 1", "median 2", "spread 2", "2 worse")
	noise := map[string]float64{}
	everywhere := map[string]bool{}
	for _, name := range names {
		everywhere[name] = true
		for _, wl := range workloads {
			sets := values[name][wl.name]
			if sets == nil || len(sets[0]) < n || len(sets[1]) < n {
				everywhere[name] = false // not defined on this workload
				continue
			}
			m1, m2 := median(sets[0]), median(sets[1])
			s1, s2, shift := spread(sets[0]), spread(sets[1]), worseBy(name, m1, m2)
			noise[name] = math.Max(noise[name], math.Max(shift, math.Max(s1, s2)))
			if m1 == 0 || m2 == 0 {
				everywhere[name] = false // an end-to-end metric is never 0
			}
			fmt.Printf("%-20s %-17s %11.5g %7.2f%% %11.5g %7.2f%% %7.2f%%\n", name, wl.name, m1, s1*100, m2, s2*100, shift*100)
		}
	}

	layer := map[string]layerDecl{}
	for _, d := range bf.PerLayer {
		if !isEndToEnd(d.Name) {
			layer[d.Name] = d
		}
	}
	bf.EndToEnd = bf.EndToEnd[:0]
	for _, name := range names {
		better := "higher"
		if endToEnd[name].lowerIsBetter {
			better = "lower"
		}
		bound := math.Min(maxBound, math.Max(endToEnd[name].boundFloor, math.Ceil(noise[name]*boundHeadroom*100)/100))
		switch {
		case name == "setup_s":
			bf.EndToEnd = append(bf.EndToEnd, boundedDecl{name, units[name], better, maxBound})
		case everywhere[name] && noise[name] <= demoteAbove:
			bf.EndToEnd = append(bf.EndToEnd, boundedDecl{name, units[name], better, bound})
		default:
			why := fmt.Sprintf("noise %.1f%% is above %.0f%%", noise[name]*100, demoteAbove*100)
			if !everywhere[name] {
				why = "not defined (or 0) on every workload"
			}
			fmt.Printf("demoted to per-layer: %s (%s)\n", name, why)
			layer[name] = layerDecl{name, units[name], better}
		}
	}
	bf.PerLayer = bf.PerLayer[:0]
	for _, d := range layer {
		bf.PerLayer = append(bf.PerLayer, d)
	}
	sort.Slice(bf.PerLayer, func(i, j int) bool { return bf.PerLayer[i].Name < bf.PerLayer[j].Name })
	for _, d := range bf.EndToEnd {
		fmt.Printf("bound: %-20s %s is better, may worsen by %.0f%%\n", d.Name, d.Better, d.Bound*100)
	}
	return bf.save()
}
