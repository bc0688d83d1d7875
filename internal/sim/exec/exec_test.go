package exec

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRunCoversAllItems(t *testing.T) {
	const n = 10_000
	seen := make([]int32, n)
	Run(n, func(w *WorkItem) {
		atomic.AddInt32(&seen[w.Global], 1)
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d executed %d times, want exactly 1", i, c)
		}
	}
}

func TestRunTalliesCounters(t *testing.T) {
	const n = 1000
	r := Run(n, func(w *WorkItem) {
		w.Tally(Counters{SPFlops: 2, LoadBytes: 8, StoreBytes: 4, Instrs: 10})
	})
	if r.Items != n {
		t.Errorf("Items = %d, want %d", r.Items, n)
	}
	c := r.Counters
	if c.SPFlops != 2*n || c.LoadBytes != 8*n || c.StoreBytes != 4*n || c.Instrs != 10*n {
		t.Errorf("counters = %+v, want exact totals", c)
	}
	per := c.PerItem(n)
	if per.SPFlops != 2 || per.LoadBytes != 8 {
		t.Errorf("PerItem = %+v, want per-item values", per)
	}
	if (Counters{SPFlops: 5}).PerItem(0) != (Counters{}) {
		t.Error("PerItem(0) must be zero")
	}
}

func TestRunComputesRealResults(t *testing.T) {
	// The read-memory pattern: block sums.
	const block, blocks = 64, 128
	in := make([]float64, block*blocks)
	for i := range in {
		in[i] = float64(i % 7)
	}
	out := make([]float64, blocks)
	Run(blocks, func(w *WorkItem) {
		sum := 0.0
		st := w.Global * block
		for j := 0; j < block; j++ {
			sum += in[st+j]
		}
		out[w.Global] = sum
	})
	for i := 0; i < blocks; i++ {
		want := 0.0
		for j := 0; j < block; j++ {
			want += in[i*block+j]
		}
		if out[i] != want {
			t.Fatalf("block %d sum = %g, want %g", i, out[i], want)
		}
	}
}

func TestRunPanicsOnBadGlobal(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run(%d) did not panic", n)
				}
			}()
			Run(n, func(*WorkItem) {})
		}()
	}
}

// Barrier semantics: phase 1 writes LDS, phase 2 reads every element written
// by *other* items of the group. If phases overlapped, reads would observe
// zeros.
func TestRunTiledBarrierSemantics(t *testing.T) {
	const local, groups = 64, 32
	global := local * groups
	out := make([]float64, global)
	r := RunTiled(global, local, local,
		func(g *Group, l int) {
			g.LDS[l] = float64(g.GlobalID(l) + 1)
		},
		func(g *Group, l int) {
			sum := 0.0
			for i := 0; i < g.Size; i++ {
				sum += g.LDS[i]
			}
			out[g.GlobalID(l)] = sum
			g.Tally(Counters{LDSBytes: float64(8 * g.Size)})
		},
	)
	for gid := 0; gid < groups; gid++ {
		want := 0.0
		for l := 0; l < local; l++ {
			want += float64(gid*local + l + 1)
		}
		for l := 0; l < local; l++ {
			if got := out[gid*local+l]; got != want {
				t.Fatalf("group %d item %d = %g, want %g (barrier violated)", gid, l, got, want)
			}
		}
	}
	if r.Groups != groups {
		t.Errorf("Groups = %d, want %d", r.Groups, groups)
	}
	wantLDS := float64(8 * local * local * groups)
	if math.Abs(r.Counters.LDSBytes-wantLDS) > 1e-6 {
		t.Errorf("LDS bytes = %g, want %g", r.Counters.LDSBytes, wantLDS)
	}
}

func TestRunTiledGroupIsolation(t *testing.T) {
	// Each group writes a group-specific stamp in phase 1 and verifies it
	// in phase 2; leakage across groups (shared LDS) would trip this.
	const local, groups = 16, 64
	var bad int32
	RunTiled(local*groups, local, 1,
		func(g *Group, l int) {
			if l == 0 {
				g.LDS[0] = float64(g.ID)
			}
		},
		func(g *Group, l int) {
			if g.LDS[0] != float64(g.ID) {
				atomic.AddInt32(&bad, 1)
			}
		},
	)
	if bad != 0 {
		t.Errorf("%d items observed another group's LDS", bad)
	}
}

func TestRunTiledPanics(t *testing.T) {
	cases := []struct {
		name               string
		global, local, lds int
		phases             []Phase
	}{
		{"zero global", 0, 8, 0, []Phase{func(*Group, int) {}}},
		{"zero local", 64, 0, 0, []Phase{func(*Group, int) {}}},
		{"non-multiple", 65, 8, 0, []Phase{func(*Group, int) {}}},
		{"negative lds", 64, 8, -1, []Phase{func(*Group, int) {}}},
		{"no phases", 64, 8, 0, nil},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RunTiled %s did not panic", c.name)
				}
			}()
			RunTiled(c.global, c.local, c.lds, c.phases...)
		}()
	}
}

func TestQuickRunTiledCoverage(t *testing.T) {
	f := func(a, b uint8) bool {
		local := int(a%32) + 1
		groups := int(b%16) + 1
		global := local * groups
		var count int64
		RunTiled(global, local, 0, func(g *Group, l int) {
			atomic.AddInt64(&count, 1)
		})
		return count == int64(global)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCountersAdd(t *testing.T) {
	var c Counters
	c.Add(Counters{SPFlops: 1, DPFlops: 2, LoadBytes: 3, StoreBytes: 4, LDSBytes: 5, Instrs: 6})
	c.Add(Counters{SPFlops: 1, DPFlops: 2, LoadBytes: 3, StoreBytes: 4, LDSBytes: 5, Instrs: 6})
	want := Counters{SPFlops: 2, DPFlops: 4, LoadBytes: 6, StoreBytes: 8, LDSBytes: 10, Instrs: 12}
	if c != want {
		t.Errorf("Add = %+v, want %+v", c, want)
	}
}

func TestShardsOwnCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(shard{}); size%128 != 0 {
		t.Errorf("sizeof(shard) = %d, want a multiple of 128", size)
	}
}

// mergeTally is item i's tally in the merge-order test. Item 0 tallies
// 1e17, whose ulp is 16; every other item tallies 13/32. One small tally
// is lost against the large one, but a chunk's sum of them is not, so
// float addition is not associative here and only the per-worker
// chunking, merged in worker order, reproduces the executor's total.
func mergeTally(i int) Counters {
	if i == 0 {
		return Counters{SPFlops: 1e17}
	}
	return Counters{SPFlops: 13.0 / 32}
}

// chunkSums sums mergeTally the way each of nw workers does: worker w
// covers a contiguous chunk of the n units (items, or groups of per
// items) and sums it in index order.
func chunkSums(n, per, nw int) []Counters {
	chunk := (n + nw - 1) / nw
	sums := make([]Counters, nw)
	for w := range sums {
		for u := w * chunk; u < (w+1)*chunk && u < n; u++ {
			for l := 0; l < per; l++ {
				sums[w].Add(mergeTally(u*per + l))
			}
		}
	}
	return sums
}

func merged(sums []Counters) Counters {
	var total Counters
	for _, s := range sums {
		total.Add(s)
	}
	return total
}

func TestMergeOrderIsWorkerOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const items, local = 48, 4
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		sums := chunkSums(items, 1, procs)
		want := merged(sums)
		reversed := slices.Clone(sums)
		slices.Reverse(reversed)
		if procs > 1 && want == merged(chunkSums(items, 1, 1)) && want == merged(reversed) {
			t.Fatalf("GOMAXPROCS %d: neither sharding nor merge order changes the total; the tallies cannot show them", procs)
		}
		got := Run(items, func(w *WorkItem) { w.Tally(mergeTally(w.Global)) }).Counters
		if got != want {
			t.Errorf("GOMAXPROCS %d: Run total = %+v, want %+v", procs, got, want)
		}
		wantTiled := merged(chunkSums(items/local, local, min(procs, items/local)))
		got = RunTiled(items, local, 0, func(g *Group, l int) { g.Tally(mergeTally(g.GlobalID(l))) }).Counters
		if got != wantTiled {
			t.Errorf("GOMAXPROCS %d: RunTiled total = %+v, want %+v", procs, got, wantTiled)
		}
	}
}

func BenchmarkRunTally(b *testing.B) {
	c := Counters{SPFlops: 1, LoadBytes: 8, StoreBytes: 8, Instrs: 4}
	for i := 0; i < b.N; i++ {
		Run(1<<16, func(w *WorkItem) { w.Tally(c) })
	}
}

func BenchmarkRunSimple(b *testing.B) {
	in := make([]float64, 1<<16)
	out := make([]float64, 1<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(1<<10, func(w *WorkItem) {
			sum := 0.0
			st := w.Global * 64
			for j := 0; j < 64; j++ {
				sum += in[st+j]
			}
			out[w.Global] = sum
		})
	}
}
