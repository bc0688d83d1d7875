// Package exec is the functional execution engine of the simulator: it
// really runs kernel bodies (as Go closures) over an OpenCL-style NDRange,
// in parallel across host cores, while accumulating the operation counters
// (flops, bytes, instructions) that the timing model converts into
// simulated device time.
//
// Two kernel shapes are supported:
//
//   - Simple kernels: one function per work item, no cross-item
//     communication. Run with Run.
//   - Tiled kernels: work-groups with group-shared scratch (the local data
//     store) and barrier phases. A kernel that in OpenCL would be written
//     as "code; barrier(CLK_LOCAL_MEM_FENCE); code" is expressed as one
//     Phase per barrier-delimited region, which gives exactly the barrier
//     semantics (all items complete phase k before any starts k+1) without
//     per-item goroutines. Run with RunTiled.
//
// Counters are sharded per worker goroutine and merged at the end in
// worker order, so kernels may tally without atomics and totals are
// deterministic. Each shard sits on its own cache lines, so workers
// tallying every item do not contend for one line.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"
)

// Counters aggregates the dynamic work of a launch. Fields are totals
// across all work items.
type Counters struct {
	SPFlops    float64
	DPFlops    float64
	LoadBytes  float64
	StoreBytes float64
	LDSBytes   float64
	Instrs     float64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.SPFlops += other.SPFlops
	c.DPFlops += other.DPFlops
	c.LoadBytes += other.LoadBytes
	c.StoreBytes += other.StoreBytes
	c.LDSBytes += other.LDSBytes
	c.Instrs += other.Instrs
}

// PerItem divides the totals by n work items, for the timing model's
// per-item cost fields.
func (c Counters) PerItem(n int) Counters {
	if n <= 0 {
		return Counters{}
	}
	f := 1 / float64(n)
	return Counters{
		SPFlops:    c.SPFlops * f,
		DPFlops:    c.DPFlops * f,
		LoadBytes:  c.LoadBytes * f,
		StoreBytes: c.StoreBytes * f,
		LDSBytes:   c.LDSBytes * f,
		Instrs:     c.Instrs * f,
	}
}

// shard is one worker's Counters padded to 128 bytes: two cache lines, so
// neither a shared line nor the adjacent-line prefetcher couples the
// shards of neighbouring workers.
type shard struct {
	Counters
	_ [128 - unsafe.Sizeof(Counters{})%128]byte
}

// WorkItem is the per-item context handed to simple kernels.
type WorkItem struct {
	// Global is the work item's global index.
	Global int
	// counters points at this worker's shard.
	counters *Counters
}

// Tally accumulates this item's work into the launch counters.
func (w *WorkItem) Tally(c Counters) { w.counters.Add(c) }

// Group is the per-work-group context handed to tiled kernel phases.
type Group struct {
	// ID is the work-group index; Size its item count.
	ID, Size int
	// LDS is the group-shared scratch (the local data store). Allocated
	// once per group with the size requested at launch.
	LDS []float64

	counters *Counters
}

// Tally accumulates work into the launch counters. Tiled kernels usually
// tally once per phase per group.
func (g *Group) Tally(c Counters) { g.counters.Add(c) }

// GlobalID returns the global index of local item l in this group.
func (g *Group) GlobalID(l int) int { return g.ID*g.Size + l }

// Phase is one barrier-delimited region of a tiled kernel. The executor
// calls it for every local index 0..Size-1 of a group; all calls of phase k
// finish before any call of phase k+1 begins (barrier semantics).
type Phase func(g *Group, local int)

// Result of a functional launch.
type Result struct {
	// Items is the number of work items executed.
	Items int
	// Groups is the number of work groups (1 per item set for Run).
	Groups int
	// Counters holds launch-total work.
	Counters Counters
}

// workers returns the parallelism for functional execution.
func workers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes a simple kernel for global work items [0, global).
// It panics for non-positive sizes — launch geometry is programmer error,
// mirroring CL_INVALID_WORK_DIMENSION.
func Run(global int, kernel func(*WorkItem)) Result {
	if global <= 0 {
		panic(fmt.Sprintf("exec: invalid global size %d", global))
	}
	nw := workers()
	shards := make([]shard, nw)
	var wg sync.WaitGroup
	chunk := (global + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > global {
			hi = global
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			item := WorkItem{counters: &shards[w].Counters}
			for i := lo; i < hi; i++ {
				item.Global = i
				kernel(&item)
			}
		}(w, lo, hi)
	}
	wg.Wait()

	var total Counters
	for i := range shards {
		total.Add(shards[i].Counters)
	}
	return Result{Items: global, Groups: 1, Counters: total}
}

// RunTiled executes a tiled kernel: groups of `local` items each, with
// ldsFloats float64 scratch words per group, running the given phases with
// barrier semantics between them. global must be a multiple of local
// (OpenCL's uniform work-group requirement).
func RunTiled(global, local, ldsFloats int, phases ...Phase) Result {
	switch {
	case global <= 0 || local <= 0:
		panic(fmt.Sprintf("exec: invalid sizes global=%d local=%d", global, local))
	case global%local != 0:
		panic(fmt.Sprintf("exec: global %d not a multiple of local %d", global, local))
	case ldsFloats < 0:
		panic(fmt.Sprintf("exec: negative LDS size %d", ldsFloats))
	case len(phases) == 0:
		panic("exec: tiled kernel needs at least one phase")
	}
	groups := global / local
	nw := workers()
	if nw > groups {
		nw = groups
	}
	shards := make([]shard, nw)
	var wg sync.WaitGroup
	chunk := (groups + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > groups {
			hi = groups
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			g := Group{Size: local, counters: &shards[w].Counters}
			if ldsFloats > 0 {
				g.LDS = make([]float64, ldsFloats)
			}
			for id := lo; id < hi; id++ {
				g.ID = id
				for _, phase := range phases {
					for l := 0; l < local; l++ {
						phase(&g, l)
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()

	var total Counters
	for i := range shards {
		total.Add(shards[i].Counters)
	}
	return Result{Items: global, Groups: groups, Counters: total}
}
