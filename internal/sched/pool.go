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

// Pool is the scheduler's occupancy model: a fixed set of nodes on which
// task footprints are placed first-fit. Footprints never span nodes (the
// training framework pins each trial's executors together), so placement is
// per-node bin packing.
type Pool struct {
	caps      []NodeCap
	usedCores []int
	usedMem   []int
}

// NewPool builds an empty pool over the given node capacities.
func NewPool(caps []NodeCap) (*Pool, error) {
	if len(caps) == 0 {
		return nil, fmt.Errorf("sched: pool needs at least one node")
	}
	for i, c := range caps {
		if c.Cores < 1 || c.MemoryGB < 1 {
			return nil, fmt.Errorf("sched: node %d has invalid capacity %+v", i, c)
		}
	}
	return &Pool{
		caps:      append([]NodeCap(nil), caps...),
		usedCores: make([]int, len(caps)),
		usedMem:   make([]int, len(caps)),
	}, nil
}

// clone copies the pool including its current occupancy (used for
// what-if probes such as backfill shadow times).
func (p *Pool) clone() *Pool {
	out := &Pool{
		caps:      p.caps, // immutable after construction
		usedCores: make([]int, len(p.usedCores)),
		usedMem:   make([]int, len(p.usedMem)),
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

// place reserves fp on the first fitting node and returns its index, or
// -1 when none fits now.
func (p *Pool) place(fp params.SysConfig) int {
	for n := range p.caps {
		if p.placeOn(n, fp) {
			return n
		}
	}
	return -1
}

// fits reports whether fp could be placed right now, without reserving it.
func (p *Pool) fits(fp params.SysConfig) bool {
	for n := range p.caps {
		if p.fitsOn(n, fp) {
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
	if m := p.place(to); m >= 0 {
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
