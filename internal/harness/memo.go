package harness

import (
	"sync"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/timing"
)

// runKey holds everything that determines an app run's Result on an
// untraced, fault-free, single-device machine at a scale's default
// config: the app instance, the model and the full machine spec.
type runKey struct {
	app   string
	scale Scale
	prec  timing.Precision
	model modelapi.Name

	machine     string
	host, accel device.Device
	linkGBs     float64 // zero on unified machines
	linkUs      float64
	hostClocks  [2]int // active core, memory MHz
	accelClocks [2]int
}

// memoEntry is one run, finished once done is closed. ok is false when
// the run panicked; the entry has then left the map.
type memoEntry struct {
	done chan struct{}
	res  appcore.Result
	ok   bool
}

// runMemo is the process-wide memo of app runs behind the figure sweeps.
// Figures 8, 9 and 10 share the OpenMP baseline and all their
// double-precision runs, so each distinct run executes once per process.
// It has no eviction: in-repo callers reach at most 5 apps × 4 scales ×
// 2 precisions × 4 models × 2 machines = 320 small entries.
var runMemo = struct {
	mu   sync.Mutex
	runs map[runKey]*memoEntry
}{runs: map[runKey]*memoEntry{}}

// memoRun returns r.run(m, model) for an app of w, running each distinct
// key once per process; concurrent callers of one key wait for the first.
// Runs whose side effects a hit would drop, or whose result the key does
// not capture, go straight to r.run: a traced machine (its spans and
// counters), a fault injector or co-execution planner, and workloads
// with config overrides.
func memoRun(w *workloads, r appRunner, m *sim.Machine, model modelapi.Name) appcore.Result {
	if m.Traced() || m.FaultInjector() != nil || m.Coexec() != nil ||
		w.luleshCfg != nil || w.comdCfg != nil || w.minifeCfg != nil {
		return r.run(m, model)
	}
	k := runKey{
		app: r.name, scale: w.scale, prec: w.prec, model: model,
		machine: m.Name(), host: *m.Host(), accel: *m.Accelerator(),
		hostClocks:  [2]int{m.HostModel().CoreClock(), m.HostModel().MemClock()},
		accelClocks: [2]int{m.AcceleratorModel().CoreClock(), m.AcceleratorModel().MemClock()},
	}
	if l := m.Link(); l != nil {
		k.linkGBs, k.linkUs = l.BandwidthGBs, l.LatencyUs
	}
	for {
		runMemo.mu.Lock()
		e, found := runMemo.runs[k]
		if !found {
			e = &memoEntry{done: make(chan struct{})}
			runMemo.runs[k] = e
		}
		runMemo.mu.Unlock()
		if !found {
			return e.fill(k, func() appcore.Result { return r.run(m, model) })
		}
		<-e.done
		if e.ok {
			return e.res
		}
		// The run panicked and its entry left the map: retry the key.
	}
}

// fill runs the entry's work and publishes the result. A panicking run
// removes its entry before waking waiters, so the key is retried rather
// than poisoned, and the panic reaches the caller's runner cell.
func (e *memoEntry) fill(k runKey, run func() appcore.Result) appcore.Result {
	defer func() {
		if !e.ok {
			runMemo.mu.Lock()
			delete(runMemo.runs, k)
			runMemo.mu.Unlock()
		}
		close(e.done)
	}()
	e.res = run()
	e.ok = true
	return e.res
}
