package gt

import (
	"fmt"
	"testing"

	"pipetune/internal/workload"
)

// One tuning job's traffic to the store, counted over the 28 PipeTune
// jobs (14 cold, 14 warm) of the root package's TestSimTuningRatioGate on
// job seeds 1, 2: 231 Adds and 328 lookups, about 8 and 12 a job.
const jobAdds, jobLookups = 8, 12

// BenchmarkGTJobMix prices the store's real traffic: one op is one job's
// jobLookups lookups and jobAdds Adds, on real first-epoch profiles of
// one catalog workload, against a store of 135, 400 or 700 entries — the
// span the end-to-end benchmark's recurring lap grows it over. Every 70
// jobs the store is restored to its starting entries, untimed, so it
// stays near its size.
func BenchmarkGTJobMix(b *testing.B) {
	catalog, grid := workload.Catalog(), probeGrid()
	for _, size := range []int{135, 400, 700} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			base := make([]Entry, size)
			for i := range base {
				w := i % len(catalog)
				base[i] = Entry{
					Features: featuresOf(b, catalog[w], uint64(i)),
					BestSys:  grid[(w+i/len(catalog))%len(grid)],
					Metric:   0.5 + float64(i%10)/50,
				}
			}
			const jobs = 70
			mix := make([][]Entry, jobs)
			for j := range mix {
				w := j % len(catalog)
				for k := 0; k < jobLookups+jobAdds; k++ {
					mix[j] = append(mix[j], Entry{
						Features: featuresOf(b, catalog[w], uint64(1_000_000+j*100+k)),
						BestSys:  grid[(w+k)%len(grid)],
						Metric:   0.5,
					})
				}
			}
			s := NewMemory(DefaultConfig())
			if err := s.Replace(base); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%jobs == 0 && i > 0 {
					b.StopTimer()
					if err := s.Replace(base); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				job := mix[i%jobs]
				for _, e := range job[:jobLookups] {
					s.Lookup(e.Features)
				}
				for _, e := range job[jobLookups:] {
					if err := s.Add(e); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
