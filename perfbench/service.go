package main

// The service workload drives hetbenchd's handler in-process through
// ServeHTTP, with in-memory requests and recorders and no sockets, at
// GOMAXPROCS = nproc. Arrivals are open-loop: a fixed number of requests
// at seeded uniform times over -seconds (a Poisson process conditioned
// on its count), modelling independent users. Four in five delivered
// requests are hits, reads of a hot set of (experiment, smoke, seed) keys
// filled during set-up; the rest are misses, each a fresh (experiment,
// seed) pair at smoke scale: each round runs eight cheap-to-moderate
// experiments under one fresh seed, and rounds interleave, so the seed
// gate engages. A seeded few misses are abandoned by their client after
// a fixed deadline; they are counted, but are neither failures nor
// latency samples.
//
// Latency counts from each request's due time, so a late generator adds
// to it; a run whose generator lateness exceeds lateBound is invalid.
// Every 200 body is checked against a reference run of its key made
// directly through the harness after the timed phase.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"hetbench/internal/harness"
	"hetbench/internal/harness/runner"
	"hetbench/internal/service"
	"hetbench/internal/trace"
)

var (
	// hotExperiments × hotSeeds is the hot set.
	hotExperiments = []string{"table2", "table3", "table4", "fig11", "dag", "fleet", "trace", "profile"}
	hotSeeds       = []int64{1, 2}
	// missExperiments, under one fresh seed per round, are the miss keys.
	missExperiments = []string{"trace", "profile", "hc", "faults", "perfbaseline", "energy", "fig7", "table1"}
)

const (
	// missesPerSecond sets the miss count: 8·round(seconds·rate/8).
	missesPerSecond = 2.4
	// hitsPerMiss hits are scheduled per delivered miss, so hits are four
	// in five delivered requests.
	hitsPerMiss = 4
	// abandoned misses per run, and their client's deadline.
	abandonedMisses = 4
	abandonAfter    = 5 * time.Millisecond
	// Latency limits per class for slo_ok_ratio.
	hitLimit  = 25 * time.Millisecond
	missLimit = 2 * time.Second
	// spinWindow is how long before each due time the generator stops
	// sleeping and spins: a timer wakes a sleeping goroutine up to a
	// millisecond late, which would otherwise dominate hit latency.
	spinWindow = 2 * time.Millisecond
	// lateBound caps the generator's p99 lateness in a valid run.
	lateBound = 50 * time.Millisecond
	// overheadProbes is the number of hit pairs the traced run times to
	// split handler time from Do time.
	overheadProbes = 400
)

// arrival is one scheduled request.
type arrival struct {
	at      time.Duration
	req     service.RunRequest
	hit     bool
	abandon bool
}

// outcome is what one request's client saw.
type outcome struct {
	status    int
	body      []byte
	latency   time.Duration
	abandoned bool
}

func runBody(req service.RunRequest) []byte {
	b, _ := json.Marshal(req) // a RunRequest always encodes
	return b
}

// post sends one run request through the handler.
func post(ctx context.Context, h http.Handler, req service.RunRequest) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(runBody(req))).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// hotSet returns the hot keys in warm-up order.
func hotSet() []service.RunRequest {
	var keys []service.RunRequest
	for _, seed := range hotSeeds {
		for _, exp := range hotExperiments {
			keys = append(keys, service.RunRequest{Experiment: exp, Scale: "smoke", Seed: seed})
		}
	}
	return keys
}

// arrivals builds the seeded open-loop arrival list.
func arrivals(seed int64, seconds float64) []arrival {
	r := rand.New(rand.NewSource(seed))
	rounds := int(seconds*missesPerSecond/float64(len(missExperiments)) + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	// One fresh seed per round, disjoint from the hot set's and, for
	// rounds below 1000, from every other workload seed's.
	var misses []arrival
	for i := 0; i < rounds; i++ {
		for _, exp := range missExperiments {
			req := service.RunRequest{Experiment: exp, Scale: "smoke", Seed: 1000 + seed*1000 + int64(i)}
			misses = append(misses, arrival{req: req})
		}
	}
	r.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	abandon := min(abandonedMisses, len(misses)/2)
	for _, i := range r.Perm(len(misses))[:abandon] {
		misses[i].abandon = true
	}
	hot := hotSet()
	all := misses
	// Hits cycle through the hot set, so every run reads each key about
	// equally often: keys differ in response size, and a seeded mix would
	// move the median from seed to seed.
	for i := 0; i < hitsPerMiss*(len(misses)-abandon); i++ {
		all = append(all, arrival{req: hot[i%len(hot)], hit: true})
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	times := make([]float64, len(all))
	for i := range times {
		times[i] = r.Float64() * seconds
	}
	sort.Float64s(times)
	for i := range all {
		all[i].at = time.Duration(times[i] * float64(time.Second))
	}
	return all
}

func setupService(cfg config) (func(bool) (result, error), error) {
	plan := arrivals(cfg.seed, cfg.seconds)
	// One runner worker per run, as `hetbenchd -jobs 1` deploys it: a
	// miss then occupies one core and the handler keeps the other, so hit
	// latency measures the handler rather than waits for preemption.
	runner.SetJobs(1)
	svc := service.New(service.Options{})
	h := svc.Handler()
	for _, req := range hotSet() {
		if rec := post(context.Background(), h, req); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s seed %d: status %d: %s", req.Experiment, req.Seed, rec.Code, rec.Body.String())
		}
	}
	return func(traced bool) (result, error) {
		return runService(svc, h, plan, traced)
	}, nil
}

func runService(svc *service.Service, h http.Handler, plan []arrival, traced bool) (result, error) {
	res := result{Correct: true, Metrics: metrics{}}
	gs := readGoStats()
	reg := svc.Registry()
	before := reg.Snapshot()
	busyBefore := runner.TotalStats().Serial

	outcomes := make([]outcome, len(plan))
	lateMs := make([]float64, len(plan))
	var wg sync.WaitGroup
	start := now()
	for i, a := range plan {
		due := start.Add(a.at)
		if d := due.Sub(now()); d > spinWindow {
			time.Sleep(d - spinWindow)
		}
		for now().Before(due) {
		}
		lateMs[i] = float64(now().Sub(due)) / 1e6
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			ctx := context.Background()
			if a.abandon {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, abandonAfter)
				defer cancel()
			}
			rec := post(ctx, h, a.req)
			o := outcome{status: rec.Code, body: rec.Body.Bytes(), latency: now().Sub(due)}
			o.abandoned = a.abandon && rec.Code != http.StatusOK && ctx.Err() != nil
			outcomes[i] = o
		}(i, a, due)
	}
	wg.Wait()
	wall := since(start)
	closeCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Close(closeCtx); err != nil {
		return res, fmt.Errorf("drain: %w", err)
	}
	busy := (runner.TotalStats().Serial - busyBefore).Seconds()
	after := reg.Snapshot()

	// Classify outcomes and check every delivered body.
	refs := map[string]string{}
	var hitMs, missMs, allMs []float64
	abandoned, delivered, deliveredMisses, sloOK := 0, 0, 0, 0
	for i, o := range outcomes {
		a := plan[i]
		res.Attempted++
		if o.abandoned {
			abandoned++
			continue
		}
		if o.status != http.StatusOK {
			res.Failed++
			note("%s seed %d: status %d: %s", a.req.Experiment, a.req.Seed, o.status, o.body)
			continue
		}
		if err := checkBody(o.body, a, refs); err != nil {
			res.Failed++
			res.Correct = false
			note("%s seed %d: %v", a.req.Experiment, a.req.Seed, err)
			continue
		}
		delivered++
		ms := float64(o.latency) / 1e6
		allMs = append(allMs, ms)
		limit := missLimit
		if a.hit {
			hitMs = append(hitMs, ms)
			limit = hitLimit
		} else {
			missMs = append(missMs, ms)
			deliveredMisses++
		}
		if o.latency <= limit {
			sloOK++
		}
	}
	lateP99, lateMax := Quantile(lateMs, 0.99), Quantile(lateMs, 1)
	if lateP99 > float64(lateBound)/1e6 {
		res.Correct = false
		note("invalid run: generator p99 lateness %.2f ms exceeds %v", lateP99, lateBound)
	}
	note("%d requests over %.3f s: %d hits, %d misses delivered, %d abandoned, %d failed",
		len(plan), wall, len(hitMs), len(missMs), abandoned, res.Failed)
	note("all p50 %.3f ms, p90 %.3f ms (n=%d); hit p50 %.3f ms, p99 %.3f ms (n=%d); miss p50 %.1f ms, p90 %.1f ms (n=%d)",
		Median(allMs), Quantile(allMs, 0.9), len(allMs), Median(hitMs), Quantile(hitMs, 0.99), len(hitMs),
		Median(missMs), Quantile(missMs, 0.9), len(missMs))
	note("generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms (n=%d); hit p90 %.3f ms",
		Median(lateMs), lateP99, lateMax, len(lateMs), Quantile(hitMs, 0.9))

	if !traced {
		res.Metrics.set("throughput_per_s", float64(delivered)/wall, "1/s")
		res.Metrics.set("p50_ms", Median(allMs), "ms")
		return res, nil
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	m := res.Metrics
	m.set("service.hits", delta(trace.CtrServiceCacheHits), "count")
	m.set("service.misses", delta(trace.CtrServiceCacheMisses), "count")
	m.set("service.dedup_joined", delta(trace.CtrServiceDedupJoined), "count")
	m.set("service.shed", delta(trace.CtrServiceShed), "count")
	m.set("service.canceled", delta(trace.CtrServiceCanceled), "count")
	m.set("service.errors", delta(trace.CtrServiceErrors), "count")
	m.set("service.abandoned", float64(abandoned), "count")
	lookups := delta(trace.CtrServiceCacheHits) + delta(trace.CtrServiceCacheMisses) + delta(trace.CtrServiceDedupJoined)
	m.set("service.hit_ratio", ratio(delta(trace.CtrServiceCacheHits), lookups), "ratio")
	if hist := reg.Hist(trace.HistServiceRequestNs); hist != nil {
		m.set("service.do_p50_ms", hist.Quantile(0.5)/1e6, "ms")
		m.set("service.do_p99_ms", hist.Quantile(0.99)/1e6, "ms")
	}
	m.set("runner.busy_s_per_miss", ratio(busy, float64(deliveredMisses)), "s")
	m.set("service.hit_p50_ms", Median(hitMs), "ms")
	m.set("service.hit_p99_ms", Quantile(hitMs, 0.99), "ms")
	m.set("service.miss_p50_ms", Median(missMs), "ms")
	m.set("service.miss_p90_ms", Quantile(missMs, 0.9), "ms")
	m.set("service.slo_ok_ratio", ratio(float64(sloOK), float64(len(plan)-abandoned)), "ratio")
	m.set("gen.late_p99_ms", lateP99, "ms")
	m.set("gen.late_max_ms", lateMax, "ms")
	overhead, err := httpOverheadMs()
	if err != nil {
		return res, err
	}
	m.set("http.overhead_ms", overhead, "ms")
	addGoMetrics(m, gs)
	return res, nil
}

// checkBody decodes a 200 body and compares it with a reference run of
// its key, made directly through the harness and memoized in refs.
func checkBody(body []byte, a arrival, refs map[string]string) error {
	var got service.Result
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("bad body: %w", err)
	}
	key := service.Key(a.req)
	if got.Key != key || got.Experiment != a.req.Experiment || got.Seed != a.req.Seed || got.Scale != a.req.Scale {
		return fmt.Errorf("response names key %s (%s seed %d), want %s", got.Key, got.Experiment, got.Seed, key)
	}
	if got.Cached != a.hit {
		return fmt.Errorf("cached = %v on a %s", got.Cached, map[bool]string{true: "hit", false: "miss"}[a.hit])
	}
	want, ok := refs[key]
	if !ok {
		e, found := harness.Registry()[a.req.Experiment]
		if !found {
			return fmt.Errorf("unknown experiment")
		}
		scale, err := harness.ParseScale(a.req.Scale)
		if err != nil {
			return err
		}
		harness.SetSeed(a.req.Seed)
		var buf bytes.Buffer
		if err := e.Run(context.Background(), scale, &buf); err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		want = buf.String()
		refs[key] = want
	}
	if got.Output != want {
		return fmt.Errorf("output differs from the reference run")
	}
	return nil
}

// httpOverheadMs times hits on one fresh service two ways, through
// Service.Do and through the handler, and returns the difference of the
// medians.
func httpOverheadMs() (float64, error) {
	svc := service.New(service.Options{})
	defer svc.Close(context.Background())
	h := svc.Handler()
	req := service.RunRequest{Experiment: "table2", Scale: "smoke", Seed: 1}
	if rec := post(context.Background(), h, req); rec.Code != http.StatusOK {
		return 0, fmt.Errorf("probe warm-up: status %d", rec.Code)
	}
	var doMs, handlerMs []float64
	for i := 0; i < overheadProbes; i++ {
		t := now()
		if _, err := svc.Do(context.Background(), req); err != nil {
			return 0, err
		}
		doMs = append(doMs, since(t)*1e3)
		t = now()
		if rec := post(context.Background(), h, req); rec.Code != http.StatusOK {
			return 0, fmt.Errorf("probe: status %d", rec.Code)
		}
		handlerMs = append(handlerMs, since(t)*1e3)
	}
	return Median(handlerMs) - Median(doMs), nil
}
