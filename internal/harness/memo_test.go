package harness

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/fault"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/trace"
)

// resetMemo empties the run memo so a test starts cold.
func resetMemo() {
	runMemo.mu.Lock()
	defer runMemo.mu.Unlock()
	runMemo.runs = map[runKey]*memoEntry{}
}

// memoEntries snapshots the memo's finished entries.
func memoEntries() map[runKey]appcore.Result {
	runMemo.mu.Lock()
	entries := make(map[runKey]*memoEntry, len(runMemo.runs))
	for k, e := range runMemo.runs {
		entries[k] = e
	}
	runMemo.mu.Unlock()
	out := make(map[runKey]appcore.Result, len(entries))
	for k, e := range entries {
		<-e.done
		out[k] = e.res
	}
	return out
}

// resultDiff names the first field where a and b differ, comparing
// floats by bit pattern; "" means identical.
func resultDiff(a, b appcore.Result) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		same := fa.Interface() == fb.Interface()
		if fa.Kind() == reflect.Float64 {
			same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
		}
		if !same {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// fakeRunner is an app adapter that counts its runs and returns a fixed
// result, for memo mechanics that need no real app.
func fakeRunner(calls *int, res appcore.Result) appRunner {
	return appRunner{name: "fake", run: func(*sim.Machine, modelapi.Name) appcore.Result {
		*calls++
		return res
	}}
}

// Every key the Figure 8–10 sweeps store at smoke and small scale holds
// exactly what a direct run on fresh workloads and a fresh machine
// returns, and the sweeps store one entry per distinct run: 10 OpenMP
// baselines plus 30 model runs on each machine, per scale. The memo is
// not reset first, so entries stored by earlier tests' sweeps (at any
// worker count, in any order) are checked too, and cost no rerun.
func TestMemoMatchesDirectRuns(t *testing.T) {
	defer resetMemo()
	machines := map[string]func() *sim.Machine{
		sim.NewAPU().Name():  sim.NewAPU,
		sim.NewDGPU().Name(): sim.NewDGPU,
	}
	scales := []Scale{ScaleSmoke, ScaleSmall}
	for _, scale := range scales {
		for _, mk := range []func() *sim.Machine{sim.NewAPU, sim.NewDGPU} {
			must(SpeedupData(bg, scale, mk))
			must(ProductivityData(bg, scale, mk))
		}
	}
	entries := memoEntries()
	if len(entries) > 320 {
		t.Errorf("memo holds %d entries, above the documented bound of 320", len(entries))
	}
	checked := 0
	for k, got := range entries {
		if k.scale != ScaleSmoke && k.scale != ScaleSmall {
			continue
		}
		checked++
		w := newWorkloads(k.scale, k.prec)
		r, ok := w.runnerByName(k.app)
		mk := machines[k.machine]
		if !ok || mk == nil {
			t.Errorf("entry %+v names an unknown app or machine", k)
			continue
		}
		want := r.run(mk(), k.model)
		if f := resultDiff(got, want); f != "" {
			t.Errorf("entry %+v: %s differs from a direct run", k, f)
		}
	}
	if want := len(scales) * 70; checked != want {
		t.Errorf("memo holds %d entries at smoke and small scale after Figures 8-10, want %d", checked, want)
	}
}

// Figures 8 and 10 sharing the memo concurrently render the same bytes
// as each rendered alone from a cold memo.
func TestMemoConcurrentFiguresMatchSerial(t *testing.T) {
	defer resetMemo()
	figs := []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return RunFig8(bg, ScaleSmoke, b) },
		func(b *bytes.Buffer) error { return RunFig10(bg, ScaleSmoke, b) },
	}
	cold := make([]bytes.Buffer, len(figs))
	for i, f := range figs {
		resetMemo()
		if err := f(&cold[i]); err != nil {
			t.Fatal(err)
		}
	}
	resetMemo()
	hot := make([]bytes.Buffer, len(figs))
	errs := make([]error, len(figs))
	var wg sync.WaitGroup
	for i, f := range figs {
		wg.Add(1)
		go func(i int, f func(*bytes.Buffer) error) {
			defer wg.Done()
			errs[i] = f(&hot[i])
		}(i, f)
	}
	wg.Wait()
	for i := range figs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if cold[i].String() != hot[i].String() {
			t.Errorf("figure %d: concurrent output differs from its cold serial run", i)
		}
	}
}

// A capture sees every span and counter of Figure 10 even when an
// uncaptured Figure 8 already stored the same runs: traced machines
// bypass the memo.
func TestMemoCaptureFoldsSameTrace(t *testing.T) {
	defer resetMemo()
	type snapshot struct {
		spans int
		procs []string
		ctrs  map[string]float64
	}
	fig10 := func() snapshot {
		capture := trace.New()
		runner.SetCapture(capture)
		defer runner.SetCapture(nil)
		if err := RunFig10(bg, ScaleSmoke, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		return snapshot{capture.Len(), capture.Processes(), capture.Metrics().Snapshot()}
	}
	resetMemo()
	cold := fig10()
	resetMemo()
	if err := RunFig8(bg, ScaleSmoke, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	warm := fig10()
	if cold.spans == 0 || cold.spans != warm.spans {
		t.Errorf("folded span counts differ: %d cold vs %d after fig8", cold.spans, warm.spans)
	}
	if !reflect.DeepEqual(cold.procs, warm.procs) {
		t.Errorf("process lists differ:\ncold:       %v\nafter fig8: %v", cold.procs, warm.procs)
	}
	if len(cold.ctrs) == 0 || !reflect.DeepEqual(cold.ctrs, warm.ctrs) {
		t.Errorf("counter registries differ:\ncold:       %v\nafter fig8: %v", cold.ctrs, warm.ctrs)
	}
}

// A run that panics leaves no entry: the panic reaches the caller, and
// the next caller (or a waiter) runs the key again.
func TestMemoPanicLeavesNoEntry(t *testing.T) {
	resetMemo()
	defer resetMemo()
	w := newWorkloads(ScaleSmoke, timing.Double)
	started, release := make(chan struct{}), make(chan struct{})
	panicky := appRunner{name: "fake", run: func(*sim.Machine, modelapi.Name) appcore.Result {
		close(started)
		<-release
		panic("injected")
	}}
	var calls int
	good := fakeRunner(&calls, appcore.Result{App: "fake", ElapsedNs: 42})

	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		memoRun(w, panicky, sim.NewAPU(), modelapi.OpenCL)
	}()
	// Once the panicking run owns the key, start a second caller of the
	// same key; it either waits for the panic and retries, or arrives
	// after it and finds the key absent.
	<-started
	second := make(chan appcore.Result)
	go func() { second <- memoRun(w, good, sim.NewAPU(), modelapi.OpenCL) }()
	close(release)
	if p := <-panicked; p == nil {
		t.Fatal("the panicking run did not panic")
	}
	if res := <-second; res.ElapsedNs != 42 || calls != 1 {
		t.Fatalf("second caller got %+v after %d runs, want its own run's result", res, calls)
	}
	if res := memoRun(w, good, sim.NewAPU(), modelapi.OpenCL); res.ElapsedNs != 42 || calls != 1 {
		t.Fatalf("third caller got %+v after %d runs, want a hit", res, calls)
	}
	if n := len(memoEntries()); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
}

// Runs a hit would lose side effects of, or whose result the key does
// not capture, skip the memo; a changed clock is a different key.
func TestMemoBypassAndKey(t *testing.T) {
	resetMemo()
	defer resetMemo()
	var calls int
	r := fakeRunner(&calls, appcore.Result{App: "fake"})
	w := newWorkloads(ScaleSmoke, timing.Double)
	overridden := newWorkloads(ScaleSmoke, timing.Double)
	cfg := minifeConfig(ScaleSmoke)
	overridden.minifeCfg = &cfg

	for name, run := range map[string]func(){
		"traced": func() {
			m := sim.NewAPU()
			m.SetTracer(trace.New())
			memoRun(w, r, m, modelapi.OpenCL)
		},
		"fault injector": func() {
			m := sim.NewAPU()
			m.SetFaultInjector(fault.New(faultConfig(0.01, 1)), fault.DefaultPolicy())
			memoRun(w, r, m, modelapi.OpenCL)
		},
		"coexec planner": func() {
			m := sim.NewAPU()
			m.SetCoexec(sched.New(sched.Config{Policy: sched.Dynamic}))
			memoRun(w, r, m, modelapi.OpenCL)
		},
		"config override": func() { memoRun(overridden, r, sim.NewAPU(), modelapi.OpenCL) },
	} {
		calls = 0
		run()
		run()
		if calls != 2 || len(memoEntries()) != 0 {
			t.Errorf("%s: %d runs and %d entries after two calls, want 2 and 0", name, calls, len(memoEntries()))
		}
	}

	calls = 0
	memoRun(w, r, sim.NewDGPU(), modelapi.OpenCL)
	memoRun(w, r, sim.NewDGPU(), modelapi.OpenCL)
	slow := sim.NewDGPU()
	slow.AcceleratorModel().SetCoreClock(500)
	memoRun(w, r, slow, modelapi.OpenCL)
	if calls != 2 || len(memoEntries()) != 2 {
		t.Errorf("%d runs and %d entries, want 2 and 2 (one hit, one new clock)", calls, len(memoEntries()))
	}
}
