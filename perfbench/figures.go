package main

// The figures workload regenerates the paper's headline artifacts,
// Figures 8, 9 and 10, at default scale on one runner worker, exactly as
// `hetbench -exp fig8|fig9|fig10 -scale default -jobs 1` does, and checks
// every byte against the committed results_default.txt. Its inputs are
// the paper's configurations, so -seed does not change them.
//
// The traced run measures the same work twice in one process: once
// through the harness data calls (SpeedupData, ProductivityData), and
// once rebuilt cell by cell from public app calls with the default-scale
// configs copied from internal/harness, timing every problem build
// (apps), every Problem.Run (apps/models), the cache characterization,
// the timing-model replay (sim) and the rendering (report). The rebuilt
// numbers must equal the harness's exactly, which proves the traced pass
// measures the same work; its extra wall time is the tracing overhead.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"hetbench/internal/apps/appcore"
	"hetbench/internal/apps/comd"
	"hetbench/internal/apps/lulesh"
	"hetbench/internal/apps/minife"
	"hetbench/internal/apps/readmem"
	"hetbench/internal/apps/xsbench"
	"hetbench/internal/harness"
	"hetbench/internal/harness/runner"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/report"
	"hetbench/internal/sim"
	"hetbench/internal/sim/timing"
	"hetbench/internal/sloc"
)

// figureRuns are the three artifacts in run order.
var figureRuns = []struct {
	id  string
	run func(context.Context, harness.Scale, io.Writer) error
}{
	{"fig8", harness.RunFig8},
	{"fig9", harness.RunFig9},
	{"fig10", harness.RunFig10},
}

// referenceSections extracts each figure's expected output from a
// `hetbench -exp all` transcript: the lines between the figure's
// "=== id — title ===" header and the next header.
func referenceSections(transcript string, ids []string) (map[string]string, error) {
	out := map[string]string{}
	for _, id := range ids {
		i := strings.Index(transcript, "=== "+id+" ")
		if i < 0 {
			return nil, fmt.Errorf("reference has no %s section", id)
		}
		body := transcript[i:]
		body = body[strings.IndexByte(body, '\n')+1:]
		if j := strings.Index(body, "\n=== "); j >= 0 {
			body = body[:j+1]
		}
		out[id] = body
	}
	return out, nil
}

// cellSink collects the runner's per-cell wall times.
type cellSink struct {
	mu     sync.Mutex
	cellMs []float64
	failed int
}

func (s *cellSink) Emit(ev runner.Event) {
	if ev.Type != "cell-done" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cellMs = append(s.cellMs, float64(ev.CellDur.Nanoseconds())/1e6)
	if ev.Err != nil {
		s.failed++
	}
}

func setupFigures(cfg config) (func(bool) (result, error), error) {
	transcript, err := os.ReadFile(filepath.Join(cfg.root, "results_default.txt"))
	if err != nil {
		return nil, err
	}
	ref, err := referenceSections(string(transcript), []string{"fig8", "fig9", "fig10"})
	if err != nil {
		return nil, err
	}
	runner.SetJobs(1)
	return func(traced bool) (result, error) {
		if traced {
			return tracedFigures(ref, cfg.seed)
		}
		return untracedFigures(ref)
	}, nil
}

func untracedFigures(ref map[string]string) (result, error) {
	sink := &cellSink{}
	runner.SetProgress(sink)
	defer runner.SetProgress(nil)
	res := result{Correct: true, Metrics: metrics{}}
	var figMs []float64
	start := now()
	for _, f := range figureRuns {
		t := now()
		var buf bytes.Buffer
		if err := f.run(context.Background(), harness.ScaleDefault, &buf); err != nil {
			return res, fmt.Errorf("%s: %w", f.id, err)
		}
		figMs = append(figMs, since(t)*1e3)
		buf.WriteByte('\n')
		if buf.String() != ref[f.id] {
			res.Correct = false
			note("%s: output differs from results_default.txt", f.id)
		}
		note("%s: %.1f ms", f.id, figMs[len(figMs)-1])
	}
	wall := since(start)
	res.Attempted, res.Failed = len(sink.cellMs), sink.failed
	res.Metrics.set("throughput_per_s", float64(len(sink.cellMs))/wall, "1/s")
	res.Metrics.set("p50_ms", Median(figMs), "ms")
	note("wall %.3f s; figure p50 %.1f ms (n=%d); %d runner cells, cell p50 %.1f ms, p90 %.1f ms (n=%d)",
		wall, Median(figMs), len(figMs), len(sink.cellMs), Median(sink.cellMs), Quantile(sink.cellMs, 0.9), len(sink.cellMs))
	return res, nil
}

// figApp is one proxy app built from its public package, with the
// default-scale configuration copied from internal/harness.
type figApp struct {
	name, short string
	// kernelOnly marks read-benchmark, which the paper compares by
	// kernel time alone.
	kernelOnly bool
	build      func(prec timing.Precision) figProblem
}

// figProblem is one built problem: its Run and, for the four proxy
// applications, its cache characterization.
type figProblem struct {
	run          func(m *sim.Machine, model modelapi.Name) appcore.Result
	characterize func(m *sim.Machine) float64
}

var figApps = []figApp{
	{readmem.AppName, "readmem", true, func(prec timing.Precision) figProblem {
		p := readmem.NewProblem(readmem.Config{Blocks: 1 << 17, Precision: prec})
		return figProblem{run: p.Run}
	}},
	{lulesh.AppName, "lulesh", false, func(prec timing.Precision) figProblem {
		p := lulesh.NewProblem(lulesh.Config{S: 48, Iters: 50, FunctionalIters: 2}, prec)
		return figProblem{run: p.Run, characterize: p.MeasuredTraits}
	}},
	{comd.AppName, "comd", false, func(prec timing.Precision) figProblem {
		cfg := comd.Config{Nx: 12, Ny: 12, Nz: 12, Iters: 20, FunctionalIters: 2}
		p := comd.NewProblem(cfg, prec)
		return figProblem{run: p.Run, characterize: func(m *sim.Machine) float64 {
			return comd.NewState(cfg).MeasuredMissRate(m, prec)
		}}
	}},
	{xsbench.AppName, "xsbench", false, func(prec timing.Precision) figProblem {
		p := xsbench.NewProblem(xsbench.Config{Nuclides: 48, GridPoints: 4096, Lookups: 500_000}, prec)
		return figProblem{run: p.Run, characterize: p.MeasuredMissRate}
	}},
	{minife.AppName, "minife", false, func(prec timing.Precision) figProblem {
		p := minife.NewProblem(minife.Config{Nx: 64, Ny: 64, Nz: 64, MaxIters: 60, FunctionalIters: 2}, prec)
		return figProblem{
			run:          func(m *sim.Machine, model modelapi.Name) appcore.Result { return p.Run(m, model).Result },
			characterize: p.MeasuredMissRate,
		}
	}},
}

// modelShort names a model in metric keys.
var modelShort = map[modelapi.Name]string{
	modelapi.OpenMP: "openmp", modelapi.OpenCL: "opencl", modelapi.CppAMP: "cppamp", modelapi.OpenACC: "openacc",
}

// machineKind pairs a machine constructor with its name.
type machineKind struct {
	name string
	mk   func() *sim.Machine
}

var (
	apu  = machineKind{"APU", sim.NewAPU}
	dgpu = machineKind{"dGPU", sim.NewDGPU}
)

// figTracer rebuilds the figure cells from public app calls and times
// each layer.
type figTracer struct {
	m metrics
	// built and ran key every problem build and run, to count repeats.
	built, ran                                 map[string]bool
	setups, setupsRepeated, runs, runsRepeated int
	// logs holds every run's recorded launch costs, with the machine
	// they ran on, for the timing-model replay.
	logs []costLog
	// last is the most recent build of each app, characterized at the end.
	last map[string]figProblem
}

type costLog struct {
	kind machineKind
	log  []sim.LoggedCost
}

func (ft *figTracer) add(name string, secs float64) {
	ft.m.set(name, ft.m[name].Value+secs, "s")
}

func (ft *figTracer) build(a figApp, prec timing.Precision) figProblem {
	key := fmt.Sprintf("%s|%v|default", a.name, prec)
	t := now()
	p := a.build(prec)
	ft.add("apps.setup_s."+a.short, since(t))
	ft.setups++
	if ft.built[key] {
		ft.setupsRepeated++
	}
	ft.built[key] = true
	ft.last[a.name] = p
	return p
}

// run times one Problem.Run on a fresh machine of the given kind.
func (ft *figTracer) run(a figApp, p figProblem, mk machineKind, model modelapi.Name, prec timing.Precision) appcore.Result {
	key := fmt.Sprintf("%s|%s|%s|%v|default", a.name, model, mk.name, prec)
	m := mk.mk()
	m.EnableCostLog()
	t := now()
	res := p.run(m, model)
	secs := since(t)
	ft.add("apps.run_s."+a.short, secs)
	ft.add("models.run_s."+modelShort[model], secs)
	ft.logs = append(ft.logs, costLog{mk, m.CostLog()})
	ft.runs++
	if ft.ran[key] {
		ft.runsRepeated++
	}
	ft.ran[key] = true
	return res
}

// compared is the time a figure compares: kernel time for
// read-benchmark, elapsed time otherwise.
func (a figApp) compared(res appcore.Result) float64 {
	if a.kernelOnly {
		return res.KernelNs
	}
	return res.ElapsedNs
}

// speedups mirrors harness.SpeedupData: per (precision, app), the OpenMP
// baseline on the APU, then the three GPU models on the target machine.
func (ft *figTracer) speedups(mk machineKind) []harness.SpeedupCell {
	var out []harness.SpeedupCell
	for _, prec := range []timing.Precision{timing.Single, timing.Double} {
		for _, a := range figApps {
			p := ft.build(a, prec)
			base := a.compared(ft.run(a, p, apu, modelapi.OpenMP, prec))
			for _, model := range modelapi.All() {
				res := ft.run(a, p, mk, model, prec)
				sp := 0.0
				if t := a.compared(res); t > 0 {
					sp = base / t
				}
				out = append(out, harness.SpeedupCell{
					App: a.name, Model: model, Precision: prec, Speedup: sp,
					KernelMs: res.KernelNs / 1e6, TransferMs: res.TransferNs / 1e6,
				})
			}
		}
	}
	return out
}

// productivity mirrors harness.ProductivityData: Eq. 1 with
// double-precision times and the paper's Table IV line counts.
func (ft *figTracer) productivity(mk machineKind) []harness.ProductivityRow {
	lines := map[string]sloc.Table4Row{}
	for _, r := range sloc.Table4() {
		lines[r.App] = r
	}
	var out []harness.ProductivityRow
	for _, a := range figApps {
		p := ft.build(a, timing.Double)
		base := a.compared(ft.run(a, p, apu, modelapi.OpenMP, timing.Double))
		l := lines[a.name]
		eq1 := func(model modelapi.Name, modelLines int) float64 {
			return sloc.Productivity(base, a.compared(ft.run(a, p, mk, model, timing.Double)), modelLines, l.OpenMP)
		}
		row := harness.ProductivityRow{App: a.name}
		row.OpenCL = eq1(modelapi.OpenCL, l.OpenCL)
		row.CppAMP = eq1(modelapi.CppAMP, l.CppAMP)
		row.OpenACC = eq1(modelapi.OpenACC, l.OpenACC)
		out = append(out, row)
	}
	return out
}

// figData is the numbers behind Figures 8, 9 and 10.
type figData struct {
	sp8, sp9     []harness.SpeedupCell
	pr10a, pr10b []harness.ProductivityRow
}

// harnessPass computes figData through the harness data calls, timing
// each figure into m.
func harnessPass(m metrics) (figData, error) {
	ctx := context.Background()
	var d figData
	var err error
	t := now()
	if d.sp8, err = harness.SpeedupData(ctx, harness.ScaleDefault, sim.NewAPU); err != nil {
		return d, err
	}
	m.set("harness.fig8_s", since(t), "s")
	t = now()
	if d.sp9, err = harness.SpeedupData(ctx, harness.ScaleDefault, sim.NewDGPU); err != nil {
		return d, err
	}
	m.set("harness.fig9_s", since(t), "s")
	t = now()
	if d.pr10a, err = harness.ProductivityData(ctx, harness.ScaleDefault, sim.NewAPU); err != nil {
		return d, err
	}
	if d.pr10b, err = harness.ProductivityData(ctx, harness.ScaleDefault, sim.NewDGPU); err != nil {
		return d, err
	}
	m.set("harness.fig10_s", since(t), "s")
	return d, nil
}

// tracedFigures measures the harness pass and the traced rebuild, and
// checks that both produce the same numbers and the reference bytes. The
// pass that runs second finds warmer caches and heap, so the order
// alternates with the seed's parity and trace.overhead_s is unbiased
// over runs.
func tracedFigures(ref map[string]string, seed int64) (result, error) {
	res := result{Correct: true, Metrics: metrics{}}
	gs := readGoStats()
	ft := &figTracer{m: res.Metrics, built: map[string]bool{}, ran: map[string]bool{}, last: map[string]figProblem{}}
	var hd, td figData
	var harnessWall, tracedWall float64
	passes := []func() error{
		func() error {
			before := runner.TotalStats()
			t := now()
			var err error
			hd, err = harnessPass(res.Metrics)
			harnessWall = since(t)
			after := runner.TotalStats()
			res.Metrics.set("runner.overhead_s", ((after.Wall - before.Wall) - (after.Serial - before.Serial)).Seconds(), "s")
			return err
		},
		func() error {
			t := now()
			td = figData{ft.speedups(apu), ft.speedups(dgpu), ft.productivity(apu), ft.productivity(dgpu)}
			tracedWall = since(t)
			return nil
		},
	}
	if seed%2 != 0 {
		passes[0], passes[1] = passes[1], passes[0]
	}
	for _, pass := range passes {
		if err := pass(); err != nil {
			return res, err
		}
	}
	res.Metrics.set("trace.overhead_s", tracedWall-harnessWall, "s")
	res.Metrics.set("apps.setups", float64(ft.setups), "count")
	res.Metrics.set("apps.setups_repeated", float64(ft.setupsRepeated), "count")
	res.Metrics.set("apps.runs", float64(ft.runs), "count")
	res.Metrics.set("apps.runs_repeated", float64(ft.runsRepeated), "count")

	// The report layer: render the harness numbers as RunFig8/9/10 do.
	t := now()
	rendered := map[string]string{
		"fig8":  renderSpeedups(fig8Title, hd.sp8),
		"fig9":  renderSpeedups(fig9Title, hd.sp9),
		"fig10": renderProductivity(hd.pr10a, hd.pr10b),
	}
	res.Metrics.set("report.render_s", since(t), "s")
	checks := []struct {
		what string
		ok   bool
	}{
		{"fig8 rendering vs results_default.txt", rendered["fig8"]+"\n" == ref["fig8"]},
		{"fig9 rendering vs results_default.txt", rendered["fig9"]+"\n" == ref["fig9"]},
		{"fig10 rendering vs results_default.txt", rendered["fig10"]+"\n" == ref["fig10"]},
		{"traced fig8 speedups vs SpeedupData", slices.Equal(td.sp8, hd.sp8)},
		{"traced fig9 speedups vs SpeedupData", slices.Equal(td.sp9, hd.sp9)},
		{"traced fig10a productivity vs ProductivityData", slices.Equal(td.pr10a, hd.pr10a)},
		{"traced fig10b productivity vs ProductivityData", slices.Equal(td.pr10b, hd.pr10b)},
	}
	for _, c := range checks {
		res.Attempted++
		if !c.ok {
			res.Failed++
			res.Correct = false
			note("mismatch: %s", c.what)
		}
	}

	// Cache characterization, once per proxy app on the dGPU.
	for _, a := range figApps {
		if p := ft.last[a.name]; p.characterize != nil {
			t := now()
			p.characterize(sim.NewDGPU())
			res.Metrics.set("apps.characterize_s."+a.short, since(t), "s")
		}
	}

	// The timing model alone: replay every recorded launch on a fresh
	// machine of the kind it ran on.
	launches := 0
	t = now()
	for _, l := range ft.logs {
		m := l.kind.mk()
		for _, lc := range l.log {
			m.LaunchKernel(lc.Target, lc.Name, lc.Cost)
		}
		launches += len(l.log)
	}
	replay := since(t)
	res.Metrics.set("sim.launches", float64(launches), "count")
	res.Metrics.set("sim.replay_ns_per_launch", ratio(replay*1e9, float64(launches)), "ns")
	addGoMetrics(res.Metrics, gs)
	note("harness pass %.3f s, traced pass %.3f s; %d setups (%d repeated), %d runs (%d repeated), %d launches",
		harnessWall, tracedWall, ft.setups, ft.setupsRepeated, ft.runs, ft.runsRepeated, launches)
	return res, nil
}

// Titles and layouts copied from internal/harness/figures.go.
const (
	fig8Title = "Speedup vs 4-core OpenMP on the A10-7850K APU (read-benchmark: kernel time only)"
	fig9Title = "Speedup vs 4-core OpenMP on the R9 280X discrete GPU (read-benchmark: kernel time only)"
)

func renderSpeedups(title string, cells []harness.SpeedupCell) string {
	t := report.NewTable(title, "Application", "Model", "SP speedup", "DP speedup", "DP kernel ms", "DP transfer ms")
	type key struct {
		app   string
		model modelapi.Name
	}
	sp := map[key]harness.SpeedupCell{}
	dp := map[key]harness.SpeedupCell{}
	for _, c := range cells {
		if c.Precision == timing.Single {
			sp[key{c.App, c.Model}] = c
		} else {
			dp[key{c.App, c.Model}] = c
		}
	}
	for _, app := range harness.AppNames {
		for _, model := range modelapi.All() {
			k := key{app, model}
			t.AddRowf(app, string(model),
				fmt.Sprintf("%.2f", sp[k].Speedup),
				fmt.Sprintf("%.2f", dp[k].Speedup),
				fmt.Sprintf("%.3f", dp[k].KernelMs),
				fmt.Sprintf("%.3f", dp[k].TransferMs))
		}
	}
	return t.String()
}

func renderProductivity(apuRows, dgpuRows []harness.ProductivityRow) string {
	var b strings.Builder
	for _, sub := range []struct {
		title string
		rows  []harness.ProductivityRow
	}{
		{"Figure 10a: productivity on the A10-7850K APU (Eq. 1, double precision)", apuRows},
		{"Figure 10b: productivity on the R9 280X discrete GPU (Eq. 1, double precision)", dgpuRows},
	} {
		t := report.NewTable(sub.title, "Application", "OpenCL", "C++ AMP", "OpenACC")
		for _, r := range sub.rows {
			t.AddRowf(r.App, fmt.Sprintf("%.2f", r.OpenCL), fmt.Sprintf("%.2f", r.CppAMP), fmt.Sprintf("%.2f", r.OpenACC))
		}
		cl, amp, acc := harness.HarmonicMeans(sub.rows)
		t.AddRowf("Har. Mean", fmt.Sprintf("%.2f", cl), fmt.Sprintf("%.2f", amp), fmt.Sprintf("%.2f", acc))
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}
