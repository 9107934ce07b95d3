package sched

import (
	"fmt"

	"pipetune/internal/params"
)

// NodeCap is one node's capacity as seen by the scheduler.
type NodeCap struct {
	Cores    int `json:"cores"`
	MemoryGB int `json:"memoryGB"`
}

// ClassCap is one node class's scheduling-relevant metadata: the axes the
// cost-aware policies price placements on.
type ClassCap struct {
	Name string `json:"name"`
	// SpeedFactor divides task durations on the class's nodes (reference
	// node = 1). Must be > 0.
	SpeedFactor float64 `json:"speedFactor,omitempty"`
	// HourlyUSD prices one node-hour of the class.
	HourlyUSD float64 `json:"hourlyUSD,omitempty"`
}

// Pool is the scheduler's occupancy model: a fixed set of nodes on which
// task footprints are placed first-fit. Footprints never span nodes (the
// training framework pins each trial's executors together), so placement is
// per-node bin packing. Every node belongs to a class (speed, price).
type Pool struct {
	caps      []NodeCap
	usedCores []int
	usedMem   []int
	classes   []ClassCap
	nodeClass []int // per-node class index
}

// NewPoolClasses builds an empty pool with per-node class membership:
// nodeClass[i] indexes classes for node i.
func NewPoolClasses(caps []NodeCap, nodeClass []int, classes []ClassCap) (*Pool, error) {
	if len(caps) == 0 {
		return nil, fmt.Errorf("sched: pool needs at least one node")
	}
	for i, c := range caps {
		if c.Cores < 1 || c.MemoryGB < 1 {
			return nil, fmt.Errorf("sched: node %d has invalid capacity %+v", i, c)
		}
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("sched: pool needs at least one node class")
	}
	if len(nodeClass) != len(caps) {
		return nil, fmt.Errorf("sched: %d nodes but %d class assignments", len(caps), len(nodeClass))
	}
	for i, ci := range nodeClass {
		if ci < 0 || ci >= len(classes) {
			return nil, fmt.Errorf("sched: node %d assigned to unknown class %d", i, ci)
		}
	}
	for i, cc := range classes {
		if cc.SpeedFactor <= 0 {
			return nil, fmt.Errorf("sched: class %d (%q) has non-positive speed factor", i, cc.Name)
		}
	}
	return &Pool{
		caps:      append([]NodeCap(nil), caps...),
		usedCores: make([]int, len(caps)),
		usedMem:   make([]int, len(caps)),
		classes:   append([]ClassCap(nil), classes...),
		nodeClass: append([]int(nil), nodeClass...),
	}, nil
}

// class returns node n's class metadata.
func (p *Pool) class(n int) ClassCap { return p.classes[p.nodeClass[n]] }

// speedOf returns node n's duration divisor.
func (p *Pool) speedOf(n int) float64 { return p.class(n).SpeedFactor }

// rateOf returns node n's hourly price.
func (p *Pool) rateOf(n int) float64 { return p.class(n).HourlyUSD }

// classNameOf returns node n's class name.
func (p *Pool) classNameOf(n int) string { return p.class(n).Name }

// clone copies the pool including its current occupancy (used for
// what-if probes such as backfill shadow times).
func (p *Pool) clone() *Pool {
	out := &Pool{
		caps:      p.caps, // immutable after construction
		usedCores: make([]int, len(p.usedCores)),
		usedMem:   make([]int, len(p.usedMem)),
		classes:   p.classes, // immutable after construction
		nodeClass: p.nodeClass,
	}
	copy(out.usedCores, p.usedCores)
	copy(out.usedMem, p.usedMem)
	return out
}

// fitsOn reports whether fp fits node n right now.
func (p *Pool) fitsOn(n int, fp params.SysConfig) bool {
	return p.caps[n].Cores-p.usedCores[n] >= fp.Cores &&
		p.caps[n].MemoryGB-p.usedMem[n] >= fp.MemoryGB
}

// placeClass reserves fp on the first fitting node of class c — of any
// class when c < 0 — and returns the node index, or -1 when none fits now.
func (p *Pool) placeClass(c int, fp params.SysConfig) int {
	for n := range p.caps {
		if (c < 0 || p.nodeClass[n] == c) && p.placeOn(n, fp) {
			return n
		}
	}
	return -1
}

// fitsClass reports whether fp could be placed on class c (any class when
// c < 0) right now, without reserving it.
func (p *Pool) fitsClass(c int, fp params.SysConfig) bool {
	for n := range p.caps {
		if (c < 0 || p.nodeClass[n] == c) && p.fitsOn(n, fp) {
			return true
		}
	}
	return false
}

// placeOn reserves fp on node n specifically, reporting success.
func (p *Pool) placeOn(n int, fp params.SysConfig) bool {
	if !p.fitsOn(n, fp) {
		return false
	}
	p.usedCores[n] += fp.Cores
	p.usedMem[n] += fp.MemoryGB
	return true
}

// reserve re-negotiates the footprint `from` held on node n to `to`: in
// place when it fits (a shrink always does), else on the first node that
// fits, else denied and `from` restored on n. It returns the hosting node
// and whether `to` was granted; a denial that cannot restore `from`
// returns -1.
func (p *Pool) reserve(n int, from, to params.SysConfig) (int, bool) {
	p.free(n, from)
	if p.placeOn(n, to) {
		return n, true
	}
	if m := p.placeClass(-1, to); m >= 0 {
		return m, true
	}
	if !p.placeOn(n, from) {
		return -1, false
	}
	return n, false
}

// free releases fp from node n.
func (p *Pool) free(n int, fp params.SysConfig) {
	p.usedCores[n] -= fp.Cores
	p.usedMem[n] -= fp.MemoryGB
}

// canEverFit reports whether fp would fit some node of an empty pool.
func (p *Pool) canEverFit(fp params.SysConfig) bool {
	for _, c := range p.caps {
		if c.Cores >= fp.Cores && c.MemoryGB >= fp.MemoryGB {
			return true
		}
	}
	return false
}
