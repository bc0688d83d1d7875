// Command perfbench is hetbench's end-to-end benchmark. One invocation
// runs one workload in a fresh process:
//
//	perfbench -workload figures|planner|service -seed N -seconds S -trace 0|1 -root DIR
//
// It sets the workload up (generating its inputs from -seed), prints the
// line "ready", runs the timed phase, checks the outputs, and prints one
// JSON result line: {"correct", "attempted", "failed", "metrics"}. With
// -trace 0 the metrics are the end-to-end metrics (endToEnd); with
// -trace 1 the run instead times calls into each layer's public
// functions from outside the program and reports the per-layer metrics
// (perLayer). With -setup-only it exits right after "ready", so a driver
// can time set-up in several fresh processes. run.py builds this program
// and adds setup_s, the spawn-to-"ready" time, to the end-to-end result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	// root is the repository checkout (results_default.txt, specs).
	root string
	// state is a directory that persists across invocations in one
	// checkout; the planner keeps its cross-run digests there.
	state string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the JSON line a run ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// setupFunc sets up one benchmark workload and returns its timed phase.
// Set-up is everything a run needs before it starts measuring; the
// returned function measures, checks its outputs and reports either the
// end-to-end (traced false) or the per-layer (traced true) metrics.
type setupFunc func(cfg config) (run func(traced bool) (result, error), err error)

var workloads = map[string]setupFunc{
	"figures": setupFigures,
	"planner": setupPlanner,
	"service": setupService,
}

// endToEnd lists the untraced run's metrics, defined per workload in
// README.md; run.py adds setup_s. Tail latency and peak memory spread
// too widely between runs to bound (see README.md); peak memory and the
// service's per-class percentiles are per-layer metrics instead.
var endToEnd = []struct{ name, unit string }{
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
}

// perLayer lists the traced run's metrics. Every workload reports every
// one; a layer the workload never calls reports 0.
var perLayer = []struct{ name, unit string }{
	{"apps.setup_s.readmem", "s"}, {"apps.setup_s.lulesh", "s"}, {"apps.setup_s.comd", "s"},
	{"apps.setup_s.xsbench", "s"}, {"apps.setup_s.minife", "s"},
	{"apps.setups", "count"}, {"apps.setups_repeated", "count"},
	{"apps.run_s.readmem", "s"}, {"apps.run_s.lulesh", "s"}, {"apps.run_s.comd", "s"},
	{"apps.run_s.xsbench", "s"}, {"apps.run_s.minife", "s"},
	{"models.run_s.openmp", "s"}, {"models.run_s.opencl", "s"}, {"models.run_s.cppamp", "s"},
	{"models.run_s.openacc", "s"},
	{"apps.runs", "count"}, {"apps.runs_repeated", "count"},
	{"apps.characterize_s.lulesh", "s"}, {"apps.characterize_s.comd", "s"},
	{"apps.characterize_s.xsbench", "s"}, {"apps.characterize_s.minife", "s"},
	{"sim.launches", "count"}, {"sim.replay_ns_per_launch", "ns"},
	{"runner.overhead_s", "s"}, {"report.render_s", "s"},
	{"harness.fig8_s", "s"}, {"harness.fig9_s", "s"}, {"harness.fig10_s", "s"},
	{"workload.parse_s", "s"}, {"workload.compile_s", "s"},
	{"workload.execute_s.serial", "s"}, {"workload.execute_s.static", "s"},
	{"workload.execute_s.dynamic", "s"}, {"workload.execute_s.hguided", "s"},
	{"sched.split_s.static", "s"}, {"sched.split_s.dynamic", "s"}, {"sched.split_s.hguided", "s"},
	{"dag.kernels", "count"}, {"dag.transfers", "count"}, {"dag.rebooked", "count"},
	{"coexec.chunks", "count"}, {"dag.virtual_makespan_s", "s"},
	{"planner.dag_kernels_per_s", "1/s"}, {"planner.splits_per_s", "1/s"},
	{"service.hits", "count"}, {"service.misses", "count"}, {"service.dedup_joined", "count"},
	{"service.shed", "count"}, {"service.canceled", "count"}, {"service.errors", "count"},
	{"service.abandoned", "count"}, {"service.hit_ratio", "ratio"},
	{"service.do_p50_ms", "ms"}, {"service.do_p99_ms", "ms"}, {"http.overhead_ms", "ms"},
	{"runner.busy_s_per_miss", "s"},
	{"service.hit_p50_ms", "ms"}, {"service.hit_p99_ms", "ms"},
	{"service.miss_p50_ms", "ms"}, {"service.miss_p90_ms", "ms"}, {"service.slo_ok_ratio", "ratio"},
	{"gen.late_p99_ms", "ms"}, {"gen.late_max_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"go.alloc_mb", "MB"}, {"go.gc_pause_s", "s"}, {"go.peak_rss_mb", "MB"},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run returns the exit code: 0 ok, 1 failure, 2 usage error.
func run(args []string) int {
	stdout, stderr := os.Stdout, os.Stderr
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figures|planner|service")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase (time-bounded workloads)")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	setupOnly := fs.Bool("setup-only", false, "exit after set-up")
	root := fs.String("root", ".", "repository checkout")
	state := fs.String("state", "", "directory kept across runs (default <root>/.bench_build/perfbench)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, root: *root, state: *state}
	if cfg.state == "" {
		cfg.state = *root + "/.bench_build/perfbench"
	}
	timed, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: set-up: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	if *setupOnly {
		return 0
	}
	res, err := timed(*trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; !ok {
				res.Metrics.set(m.name, 0, m.unit)
			}
		}
	}
	if err := checkMetrics(res.Metrics, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkMetrics verifies that a result reports exactly the declared
// metrics, each in its declared unit.
func checkMetrics(got metrics, want []struct{ name, unit string }) error {
	if len(got) != len(want) {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("reported %d metrics %v, declared %d", len(got), names, len(want))
	}
	for _, w := range want {
		m, ok := got[w.name]
		if !ok || m.Unit != w.unit {
			return fmt.Errorf("metric %s: got %+v, want unit %s", w.name, m, w.unit)
		}
	}
	return nil
}

// note prints one human-readable report line; run.py forwards it.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}
