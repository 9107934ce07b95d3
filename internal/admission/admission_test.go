package admission

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func push(t *testing.T, q *Queue, j Job) {
	t.Helper()
	if err := q.Push(j); err != nil {
		t.Fatalf("push %+v: %v", j, err)
	}
}

// drain pops everything, returning the dispatch order of job IDs.
func drain(q *Queue) []string {
	var out []string
	for {
		j, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, j.ID)
	}
}

// TestFIFOParity is the parity property behind the service's default
// configuration: whatever the tenants and costs, PolicyFIFO with default
// priorities pops in exact push order — the legacy single-channel schedule.
func TestFIFOParity(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicyFIFO})
	var want []string
	tenants := []string{"a", "b", "c", "", "a"}
	for i := 0; i < 25; i++ {
		id := fmt.Sprintf("job-%02d", i)
		push(t, q, Job{ID: id, Tenant: tenants[i%len(tenants)], Cost: float64(25 - i)})
		want = append(want, id)
	}
	got := drain(q)
	if len(got) != len(want) {
		t.Fatalf("drained %d jobs, pushed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %s, want %s (full order %v)", i, got[i], want[i], got)
		}
	}
}

// TestFIFOParityInterleaved interleaves pushes and pops: order must still
// be global submission order.
func TestFIFOParityInterleaved(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicyFIFO})
	push(t, q, Job{ID: "1", Tenant: "x"})
	push(t, q, Job{ID: "2", Tenant: "y"})
	if j, _ := q.Pop(); j.ID != "1" {
		t.Fatalf("first pop %s", j.ID)
	}
	push(t, q, Job{ID: "3", Tenant: "x"})
	if j, _ := q.Pop(); j.ID != "2" {
		t.Fatalf("second pop %s", j.ID)
	}
	if j, _ := q.Pop(); j.ID != "3" {
		t.Fatalf("third pop %s", j.ID)
	}
}

// TestPriorityTiers verifies higher priority dispatches first under FIFO,
// submission order within a tier.
func TestPriorityTiers(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicyFIFO})
	push(t, q, Job{ID: "low1"})
	push(t, q, Job{ID: "hi1", Priority: 5})
	push(t, q, Job{ID: "low2"})
	push(t, q, Job{ID: "hi2", Priority: 5})
	want := []string{"hi1", "hi2", "low1", "low2"}
	got := drain(q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestFairWeightedShare is the DRR invariant: with equal job costs and a
// saturated backlog, a weight-2 tenant dispatches twice the jobs of a
// weight-1 tenant over any aligned window.
func TestFairWeightedShare(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicyFair, Weights: map[string]int{"gold": 2, "free": 1}})
	for i := 0; i < 30; i++ {
		push(t, q, Job{ID: fmt.Sprintf("g%02d", i), Tenant: "gold", Cost: 10})
		push(t, q, Job{ID: fmt.Sprintf("f%02d", i), Tenant: "free", Cost: 10})
	}
	gold := 0
	for i := 0; i < 30; i++ {
		j, ok := q.Pop()
		if !ok {
			t.Fatal("queue dried up early")
		}
		if j.Tenant == "gold" {
			gold++
		}
	}
	// Exactly 2/3 of dispatches +/- one quantum's worth of slack.
	if gold < 19 || gold > 21 {
		t.Fatalf("gold dispatched %d of first 30, want ~20", gold)
	}
	// Within a tenant the order stays FIFO.
	j, _ := q.Pop()
	if j.ID[0] == 'g' && j.ID != "g20" && j.ID != "g19" {
		t.Fatalf("gold out of order: %s", j.ID)
	}
}

// TestFairCostWeighting verifies fairness is by cost, not job count: a
// tenant submitting double-cost jobs dispatches half as many of them.
func TestFairCostWeighting(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicyFair})
	for i := 0; i < 24; i++ {
		push(t, q, Job{ID: fmt.Sprintf("big%02d", i), Tenant: "big", Cost: 20})
		push(t, q, Job{ID: fmt.Sprintf("small%02d", i), Tenant: "small", Cost: 10})
	}
	big, small := 0, 0
	for i := 0; i < 18; i++ {
		j, _ := q.Pop()
		if j.Tenant == "big" {
			big++
		} else {
			small++
		}
	}
	// Equal weights, so equal cost share: small should dispatch ~2x as
	// many jobs as big.
	if small < 2*big-2 || small > 2*big+2 {
		t.Fatalf("cost-fair split off: big %d, small %d (want ~1:2)", big, small)
	}
}

// TestFairServesLoneTenant checks DRR degrades to FIFO when only one
// tenant is active.
func TestFairServesLoneTenant(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicyFair, Weights: map[string]int{"solo": 3}})
	for i := 0; i < 5; i++ {
		push(t, q, Job{ID: fmt.Sprintf("%d", i), Tenant: "solo", Cost: 7})
	}
	got := drain(q)
	for i, id := range got {
		if id != fmt.Sprintf("%d", i) {
			t.Fatalf("lone tenant out of order: %v", got)
		}
	}
}

// TestSJFOrdersByCost verifies the SJF key and its tie-breaks.
func TestSJFOrdersByCost(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicySJF})
	push(t, q, Job{ID: "slow", Cost: 100})
	push(t, q, Job{ID: "quick", Cost: 1})
	push(t, q, Job{ID: "mid", Cost: 50})
	push(t, q, Job{ID: "quick2", Cost: 1})
	want := []string{"quick", "quick2", "mid", "slow"}
	got := drain(q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sjf order %v, want %v", got, want)
		}
	}
}

// TestSJFStarvationGuard proves the oldest job is bypassed at most
// starveLimit times: an endless stream of cheap jobs cannot starve the
// expensive head forever.
func TestSJFStarvationGuard(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicySJF})
	push(t, q, Job{ID: "whale", Cost: 1000})
	for i := 0; i < starveLimit+2; i++ {
		push(t, q, Job{ID: fmt.Sprintf("minnow%d", i), Cost: 1})
	}
	var order []string
	for i := 0; i < starveLimit+2; i++ {
		j, _ := q.Pop()
		order = append(order, j.ID)
		// Keep the queue saturated with cheap work.
		push(t, q, Job{ID: fmt.Sprintf("late%d", i), Cost: 1})
	}
	// The whale is bypassed exactly starveLimit times, then dispatched.
	if order[starveLimit] != "whale" {
		t.Fatalf("whale not dispatched after %d bypasses: %v", starveLimit, order)
	}
}

// TestCapacity verifies ErrFull and that a rejected push leaves no trace.
func TestCapacity(t *testing.T) {
	q := mustNew(t, Config{Capacity: 2})
	push(t, q, Job{ID: "a"})
	push(t, q, Job{ID: "b"})
	if !q.Full() {
		t.Fatal("queue not full at capacity")
	}
	if err := q.Push(Job{ID: "c"}); err != ErrFull {
		t.Fatalf("over-capacity push: %v", err)
	}
	if q.Len() != 2 {
		t.Fatalf("rejected push changed length: %d", q.Len())
	}
	if j, _ := q.Pop(); j.ID != "a" {
		t.Fatalf("pop after rejection: %s", j.ID)
	}
	// Capacity freed: the next push lands.
	push(t, q, Job{ID: "d"})
}

// TestRemove verifies cancelled jobs never dispatch and bookkeeping stays
// consistent.
func TestRemove(t *testing.T) {
	q := mustNew(t, Config{Policy: PolicyFair, Weights: map[string]int{"t1": 2}})
	push(t, q, Job{ID: "a", Tenant: "t1"})
	push(t, q, Job{ID: "b", Tenant: "t2"})
	push(t, q, Job{ID: "c", Tenant: "t1"})
	if !q.Remove("a") {
		t.Fatal("remove a failed")
	}
	if q.Remove("a") {
		t.Fatal("double remove succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("len after remove = %d", q.Len())
	}
	got := drain(q)
	for _, id := range got {
		if id == "a" {
			t.Fatal("removed job dispatched")
		}
	}
	if len(got) != 2 {
		t.Fatalf("drained %d, want 2", len(got))
	}
	// Tenant t1 fully drained must leave the ring consistent for reuse.
	push(t, q, Job{ID: "d", Tenant: "t1"})
	if j, _ := q.Pop(); j.ID != "d" {
		t.Fatalf("reactivated tenant pop: %s", j.ID)
	}
}

// TestPositions verifies the nominal dispatch-order ranks per policy.
func TestPositions(t *testing.T) {
	// FIFO: rank == submission order.
	q := mustNew(t, Config{Policy: PolicyFIFO})
	push(t, q, Job{ID: "a"})
	push(t, q, Job{ID: "b"})
	if q.Position("a") != 0 || q.Position("b") != 1 {
		t.Fatalf("fifo positions a=%d b=%d", q.Position("a"), q.Position("b"))
	}
	if q.Position("ghost") != -1 {
		t.Fatal("unknown job has a position")
	}
	q.Pop()
	if q.Position("b") != 0 {
		t.Fatalf("b not promoted after pop: %d", q.Position("b"))
	}

	// SJF: rank by cost.
	qs := mustNew(t, Config{Policy: PolicySJF})
	push(t, qs, Job{ID: "slow", Cost: 9})
	push(t, qs, Job{ID: "fast", Cost: 1})
	if qs.Position("fast") != 0 || qs.Position("slow") != 1 {
		t.Fatalf("sjf positions fast=%d slow=%d", qs.Position("fast"), qs.Position("slow"))
	}

	// Fair: virtual finish time — the weight-2 tenant's second job ranks
	// ahead of the weight-1 tenant's second job.
	qf := mustNew(t, Config{Policy: PolicyFair, Weights: map[string]int{"gold": 2}})
	push(t, qf, Job{ID: "g1", Tenant: "gold", Cost: 10})
	push(t, qf, Job{ID: "f1", Tenant: "free", Cost: 10})
	push(t, qf, Job{ID: "g2", Tenant: "gold", Cost: 10})
	push(t, qf, Job{ID: "f2", Tenant: "free", Cost: 10})
	if !(qf.Position("g2") < qf.Position("f2")) {
		t.Fatalf("fair positions: g2=%d f2=%d (weight-2 second job should rank earlier)",
			qf.Position("g2"), qf.Position("f2"))
	}
}

// TestParsePolicy pins the accepted vocabulary.
func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"", "fifo", "fair", "sjf"} {
		if _, err := ParsePolicy(ok); err != nil {
			t.Errorf("ParsePolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParsePolicy("wfq"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
	if _, err := New(Config{Policy: "wfq"}); err == nil {
		t.Error("New accepted an unknown policy")
	}
}

// TestDeterminism re-runs an identical mixed workload twice: dispatch
// orders must match exactly (the service's reproducibility rests on it).
func TestDeterminism(t *testing.T) {
	run := func() []string {
		q := mustNew(t, Config{Policy: PolicyFair, Weights: map[string]int{"a": 3, "b": 1}})
		for i := 0; i < 40; i++ {
			push(t, q, Job{
				ID:       fmt.Sprintf("%d", i),
				Tenant:   []string{"a", "b", "c"}[i%3],
				Cost:     float64(1 + i%7),
				Priority: i % 2,
			})
		}
		return drain(q)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic dispatch at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestPositionIsDispatchRank holds Position to what a tenant reads it as:
// with nothing else arriving, a queued job's position is its rank in the
// Pop sequence that follows. Each policy runs 500 seeded queues of 3–22
// jobs over three weighted tenants, priorities 0–1 and costs 1–5, with
// pops interleaved so the fair ring's credit and the sjf starvation count
// are mid-flight when the positions are read. TestJobSchedules cannot
// catch a position that disagrees with Pop: its model queue answers the
// same Position it checks the service against.
func TestPositionIsDispatchRank(t *testing.T) {
	weights := map[string]int{"a": 1, "b": 2, "c": 3}
	tenants := []string{"a", "b", "c"}
	for _, policy := range []Policy{PolicyFIFO, PolicyFair, PolicySJF} {
		wrong := 0
		for seed := uint64(1); seed <= 500; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(len(policy))))
			q := mustNew(t, Config{Policy: policy, Weights: weights})
			var queued []string
			n := 3 + rng.IntN(20)
			for i := 0; i < n; i++ {
				id := fmt.Sprintf("j%02d", i)
				push(t, q, Job{
					ID:       id,
					Tenant:   tenants[rng.IntN(len(tenants))],
					Priority: rng.IntN(2),
					Cost:     float64(1 + rng.IntN(5)),
				})
				queued = append(queued, id)
				if rng.IntN(3) == 0 {
					j, _ := q.Pop()
					queued = slices.DeleteFunc(queued, func(id string) bool { return id == j.ID })
				}
			}
			pos := make(map[string]int, len(queued))
			for _, id := range queued {
				pos[id] = q.Position(id)
			}
			for rank, id := range drain(q) {
				if pos[id] != rank {
					wrong++
					if wrong == 1 {
						t.Errorf("%s seed %d: %s at position %d, dispatch rank %d", policy, seed, id, pos[id], rank)
					}
					break
				}
			}
		}
		if wrong > 0 {
			t.Errorf("%s: position differs from the dispatch rank in %d of 500 queues", policy, wrong)
		}
	}
}
