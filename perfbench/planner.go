package main

// The planner workload exercises the scheduling layers without any
// functional kernel body: a seeded stream of generated jobs, each one a
// DAG spec fed as JSON bytes through workload.Parse → Compile → Execute
// on the APU and the dGPU under the three GPU models, serially and with
// sched.NewDag in static, dynamic and hguided modes (24 executions), plus
// one generated kernel co-executed through sched.New and
// Machine.LaunchKernelSplit under the three policies on both machines (6
// splits). Every job is distinct, so nothing can be memoized away.
//
// The untraced run processes jobs for -seconds and times each job whole;
// the traced run processes a fixed number of jobs, timing every layer
// call, then the same jobs again untimed per call, so its counts repeat
// exactly for a seed and the difference of the two passes is the tracing
// overhead. Every run also executes a fixed check set (the shipped specs
// plus generated jobs of seed 0) whose simulated statistics must hash to
// checkDigest, and records cumulative digests of its own stream in the
// state directory, where later runs of the same seed compare them.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hetbench"
	"hetbench/internal/models/modelapi"
	"hetbench/internal/sched"
	"hetbench/internal/sim/exec"
	"hetbench/internal/workload"
)

const (
	// tracedJobs is the traced run's fixed job count.
	tracedJobs = 4096
	// checkpointJobs spaces the cross-run digest checkpoints.
	checkpointJobs = 1024
	// checkJobs generated jobs of seed 0 join the shipped specs in the
	// check set.
	checkJobs = 8
	// checkDigest is the hash of the check set's simulated statistics.
	// A change that only makes the simulator or the planners faster
	// leaves it unchanged.
	checkDigest = "573d261bdd1121c2"
)

// job is one generated planner input.
type job struct {
	spec   []byte
	launch genLaunch
}

// genLaunch is one generated co-executed kernel.
type genLaunch struct {
	name  string
	spec  modelapi.KernelSpec
	model modelapi.Name
	items int
	per   exec.Counters
}

// generator makes the seeded job stream.
type generator struct {
	rng  *rand.Rand
	seed int64
	n    int
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

var kernelClasses = []modelapi.KernelClass{modelapi.Streaming, modelapi.Regular, modelapi.Irregular}

// round3 keeps generated per-item counts short in JSON.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

func (g *generator) next() (job, error) {
	r := g.rng
	name := fmt.Sprintf("gen-%d-%d", g.seed, g.n)
	g.n++
	spec := workload.Spec{Name: name, Iterations: 1 + r.Intn(3)}
	spec.Buffers = append(spec.Buffers, workload.Buffer{Name: "in", Bytes: int64(4 << (12 + r.Intn(9)))})
	nk := 3 + r.Intn(8)
	for k := 0; k < nk; k++ {
		items := 1 << (12 + r.Intn(9))
		elt := 4 << r.Intn(2)
		kern := workload.Kernel{
			Name:       fmt.Sprintf("k%d", k),
			Class:      kernelClasses[r.Intn(len(kernelClasses))].String(),
			Items:      items,
			LoadBytes:  round3(float64(elt) * (1 + 8*r.Float64())),
			StoreBytes: round3(float64(elt) * (1 + r.Float64())),
			Instrs:     round3(8 + 120*r.Float64()),
			MissRate:   round3(r.Float64()),
			Coalesce:   round3(0.25 + 0.75*r.Float64()),
		}
		if elt == 8 {
			kern.DPFlops = round3(32 * r.Float64())
		} else {
			kern.SPFlops = round3(32 * r.Float64())
		}
		if r.Intn(2) == 0 {
			kern.WavefrontHint = 64
		}
		if r.Intn(4) == 0 {
			kern.LDSBytes = round3(16 * r.Float64())
		}
		nb := len(spec.Buffers)
		for _, b := range r.Perm(nb)[:1+r.Intn(min(3, nb))] {
			kern.Reads = append(kern.Reads, spec.Buffers[b].Name)
		}
		out := workload.Buffer{Name: fmt.Sprintf("b%d", k), Bytes: int64(items * elt)}
		spec.Buffers = append(spec.Buffers, out)
		kern.Writes = []string{out.Name}
		if k > 0 && r.Intn(6) == 0 {
			kern.After = []string{fmt.Sprintf("k%d", r.Intn(k))}
		}
		switch r.Intn(10) {
		case 0:
			kern.Device = "host"
		case 1:
			kern.Device = "accel"
		}
		spec.Kernels = append(spec.Kernels, kern)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return job{}, err
	}
	items := 1 << (14 + r.Intn(7))
	l := genLaunch{
		name: name + "/split",
		spec: modelapi.KernelSpec{
			Name: name + "/split", Class: kernelClasses[r.Intn(len(kernelClasses))],
			MissRate: round3(r.Float64()), Coalesce: round3(0.25 + 0.75*r.Float64()),
		},
		model: modelapi.All()[r.Intn(len(modelapi.All()))],
		items: items,
		per: exec.Counters{
			SPFlops: round3(32 * r.Float64()), LoadBytes: round3(4 + 28*r.Float64()),
			StoreBytes: round3(4 + 4*r.Float64()), Instrs: round3(8 + 120*r.Float64()),
		},
	}
	return job{spec: data, launch: l}, nil
}

// schedule is one execution mode: the serial baseline or a DAG policy.
type schedule struct {
	name   string
	serial bool
	policy sched.Policy
}

var schedules = []schedule{
	{"serial", true, 0},
	{"static", false, sched.Static},
	{"dynamic", false, sched.Dynamic},
	{"hguided", false, sched.HGuided},
}

var splitPolicies = []sched.Policy{sched.Static, sched.Dynamic, sched.HGuided}

// jobStats accumulates the simulated outcome of processed jobs and, when
// timed, the host time of each layer call.
type jobStats struct {
	// digest is an FNV-1a hash of every simulated statistic, in order.
	digest    hash.Hash64
	kernels   int
	transfers int
	rebooked  int
	splits    int
	chunks    int
	elapsedNs float64
	// timed enables per-call timing into layer (seconds by metric name).
	timed bool
	layer map[string]float64
}

func newJobStats(timed bool) *jobStats {
	return &jobStats{digest: fnv.New64a(), timed: timed, layer: map[string]float64{}}
}

// fold adds simulated statistics to the digest.
func (st *jobStats) fold(vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		st.digest.Write(b[:])
	}
}

func (st *jobStats) hex() string { return strconv.FormatUint(st.digest.Sum64(), 16) }

// clock returns a stop function that adds the elapsed time to the named
// layer when the stats are timed.
func (st *jobStats) clock(name string) func() {
	if !st.timed {
		return func() {}
	}
	t := now()
	return func() { st.layer[name] += since(t) }
}

// process runs one job through every layer and folds its statistics.
func (st *jobStats) process(j job) error {
	stop := st.clock("workload.parse_s")
	spec, err := workload.Parse(j.spec)
	stop()
	if err != nil {
		return err
	}
	stop = st.clock("workload.compile_s")
	prog, err := spec.Compile()
	stop()
	if err != nil {
		return err
	}
	st.executeAll(prog)
	st.splitAll(j.launch)
	return nil
}

func (st *jobStats) executeAll(prog *workload.Program) {
	for _, mk := range []machineKind{apu, dgpu} {
		for _, model := range modelapi.All() {
			for _, sc := range schedules {
				m := mk.mk()
				opt := workload.Options{Model: model}
				if !sc.serial {
					opt.Planner = sched.NewDag(sched.Config{Policy: sc.policy})
				}
				stop := st.clock("workload.execute_s." + sc.name)
				res := workload.Execute(m, prog, opt)
				stop()
				st.kernels += res.Kernels
				st.transfers += res.Transfers
				st.rebooked += res.Rebooked
				st.elapsedNs += res.ElapsedNs
				st.fold(math.Float64bits(res.ElapsedNs), uint64(res.Kernels), uint64(res.Transfers), uint64(res.MovedBytes))
			}
		}
	}
}

func (st *jobStats) splitAll(l genLaunch) {
	host := l.spec.Cost(modelapi.ProfileFor(modelapi.OpenMP), l.items, l.per)
	for _, mk := range []machineKind{apu, dgpu} {
		for _, pol := range splitPolicies {
			m := mk.mk()
			accel := l.spec.Cost(modelapi.ProfileOn(l.model, m.Unified()), l.items, l.per)
			s := sched.New(sched.Config{Policy: pol})
			m.SetCoexec(s)
			stop := st.clock("sched.split_s." + pol.String())
			r, _ := m.LaunchKernelSplit(l.name, accel, host)
			stop()
			chunks := s.Stats().Chunks
			st.splits++
			st.chunks += chunks
			st.fold(math.Float64bits(r.TimeNs), uint64(chunks))
		}
	}
}

// checkSet executes the fixed check set and returns its statistics.
func checkSet() (*jobStats, error) {
	st := newJobStats(false)
	for _, path := range hetbench.SpecPaths() {
		data, err := hetbench.SpecFS.ReadFile(path)
		if err != nil {
			return nil, err
		}
		spec, err := workload.Parse(data)
		if err != nil {
			return nil, err
		}
		prog, err := spec.Compile()
		if err != nil {
			return nil, err
		}
		st.executeAll(prog)
	}
	g := newGenerator(0)
	for i := 0; i < checkJobs; i++ {
		j, err := g.next()
		if err != nil {
			return nil, err
		}
		if err := st.process(j); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// checkpoints holds the cumulative stream digests recorded for one seed,
// keyed by job count.
type checkpoints struct {
	path  string
	known map[int]string
	added []string
}

func loadCheckpoints(dir string, seed int64) (*checkpoints, error) {
	cp := &checkpoints{path: filepath.Join(dir, fmt.Sprintf("planner-seed-%d.txt", seed)), known: map[int]string{}}
	f, err := os.Open(cp.path)
	if os.IsNotExist(err) {
		return cp, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		if n, err := strconv.Atoi(fields[0]); err == nil {
			cp.known[n] = fields[1]
		}
	}
	return cp, sc.Err()
}

// observe compares the digest after n jobs with an earlier run's, or
// records it; it reports false on a mismatch.
func (cp *checkpoints) observe(n int, digest string) bool {
	if old, ok := cp.known[n]; ok {
		return old == digest
	}
	cp.known[n] = digest
	cp.added = append(cp.added, fmt.Sprintf("%d %s\n", n, digest))
	return true
}

func (cp *checkpoints) save() error {
	if len(cp.added) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(cp.path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(cp.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(strings.Join(cp.added, "")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func setupPlanner(cfg config) (func(bool) (result, error), error) {
	cp, err := loadCheckpoints(cfg.state, cfg.seed)
	if err != nil {
		return nil, err
	}
	gen := newGenerator(cfg.seed)
	return func(traced bool) (result, error) {
		res := result{Correct: true, Metrics: metrics{}}
		gs := readGoStats()
		// st is the measured pass; in the traced run, plain processes the
		// same jobs timed per job only, in alternating order.
		st := newJobStats(traced)
		plain := newJobStats(false)
		var jobMs []float64
		busy, plainS := 0.0, 0.0
		mismatch := 0
		deadline := now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for traced && res.Attempted < tracedJobs || !traced && now().Before(deadline) {
			j, err := gen.next()
			if err != nil {
				return res, err
			}
			if traced && res.Attempted%2 == 1 {
				plainS += timeJob(plain, j)
			}
			t := now()
			err = st.process(j)
			d := since(t)
			if traced && res.Attempted%2 == 0 {
				plainS += timeJob(plain, j)
			}
			res.Attempted++
			if err != nil {
				res.Failed++
				note("job %d: %v", res.Attempted-1, err)
				continue
			}
			busy += d
			jobMs = append(jobMs, d*1e3)
			if res.Attempted%checkpointJobs == 0 && !cp.observe(res.Attempted, st.hex()) {
				mismatch++
			}
		}
		if mismatch > 0 {
			res.Correct = false
			note("stream statistics differ from an earlier run of seed %d at %d checkpoints", cfg.seed, mismatch)
		}
		if err := cp.save(); err != nil {
			return res, err
		}
		check, err := checkSet()
		if err != nil {
			return res, err
		}
		if check.hex() != checkDigest {
			res.Correct = false
			note("check-set statistics hash to %s, want %s", check.hex(), checkDigest)
		}
		note("%d jobs in %.3f s busy: %d DAG kernels, %d splits; job p50 %.3f ms, p90 %.3f ms (n=%d)",
			len(jobMs), busy, st.kernels, st.splits, Median(jobMs), Quantile(jobMs, 0.9), len(jobMs))
		if !traced {
			res.Metrics.set("throughput_per_s", float64(st.kernels+st.splits)/busy, "1/s")
			res.Metrics.set("p50_ms", Median(jobMs), "ms")
			return res, nil
		}
		if plain.hex() != st.hex() {
			res.Correct = false
			note("traced and untraced passes disagree on simulated statistics")
		}
		execS, splitS := 0.0, 0.0
		for name, secs := range st.layer {
			res.Metrics.set(name, secs, "s")
			if strings.HasPrefix(name, "workload.execute_s.") {
				execS += secs
			} else if strings.HasPrefix(name, "sched.split_s.") {
				splitS += secs
			}
		}
		res.Metrics.set("dag.kernels", float64(st.kernels), "count")
		res.Metrics.set("dag.transfers", float64(st.transfers), "count")
		res.Metrics.set("dag.rebooked", float64(st.rebooked), "count")
		res.Metrics.set("coexec.chunks", float64(st.chunks), "count")
		res.Metrics.set("dag.virtual_makespan_s", check.elapsedNs/1e9, "s")
		res.Metrics.set("planner.dag_kernels_per_s", ratio(float64(st.kernels), execS), "1/s")
		res.Metrics.set("planner.splits_per_s", ratio(float64(st.splits), splitS), "1/s")
		res.Metrics.set("trace.overhead_s", busy-plainS, "s")
		addGoMetrics(res.Metrics, gs)
		return res, nil
	}, nil
}

// timeJob processes one job into st and returns its host seconds; a
// failing job was already reported by the measured pass.
func timeJob(st *jobStats, j job) float64 {
	t := now()
	_ = st.process(j)
	return since(t)
}
