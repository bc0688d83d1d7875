// Package appcore holds the vocabulary shared by the proxy applications:
// the run-result record every implementation returns, precision helpers,
// and the conversion from cache-simulator measurements to the timing
// model's (MissRate, Coalesce) memory traits.
package appcore

import (
	"fmt"
	"sync"

	"hetbench/internal/models/modelapi"
	"hetbench/internal/sim/cache"
	"hetbench/internal/sim/device"
	"hetbench/internal/sim/timing"
)

// Result is the outcome of running one application under one programming
// model on one machine.
type Result struct {
	App     string
	Model   modelapi.Name
	Machine string
	// Precision the run was timed at.
	Precision timing.Precision

	// ElapsedNs is total simulated time; KernelNs and TransferNs are the
	// device-compute and data-movement shares (the paper's Figures 8a/9a
	// compare kernel-only time for read-benchmark).
	ElapsedNs  float64
	KernelNs   float64
	TransferNs float64
	// FaultNs is virtual time lost to injected faults and their recovery
	// (zero unless the run executed under internal/fault injection).
	FaultNs float64

	// Checksum is an application-defined digest of the computed output,
	// used to cross-verify implementations against the serial reference.
	Checksum float64
	// Kernels is the number of distinct device kernels the
	// implementation used (Table I).
	Kernels int
}

// SpeedupOver returns baseline.ElapsedNs / r.ElapsedNs — the paper's
// speedup metric against the OpenMP run.
func (r Result) SpeedupOver(baseline Result) float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return baseline.ElapsedNs / r.ElapsedNs
}

// String summarizes the result for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s on %s (%s): %.3f ms (kernel %.3f, xfer %.3f), checksum %g",
		r.App, r.Model, r.Machine, r.Precision,
		r.ElapsedNs/1e6, r.KernelNs/1e6, r.TransferNs/1e6, r.Checksum)
}

// EltBytes returns the element size for a precision (4 or 8).
func EltBytes(p timing.Precision) float64 {
	if p == timing.Double {
		return 8
	}
	return 4
}

// Flops splits n floating-point operations into (sp, dp) by precision —
// the tally helper every kernel body uses.
func Flops(p timing.Precision, n float64) (sp, dp float64) {
	if p == timing.Double {
		return 0, n
	}
	return n, 0
}

// Streams approximates how many independent wavefront positions walk a
// data structure concurrently on a device: each GPU CU keeps several
// waves resident (GCN supports up to 40; 8 is a typical active set under
// register pressure). Trace generators interleave this many access
// streams so LLC measurements reflect real occupancy rather than a single
// serial walk.
func Streams(dev *device.Device) int {
	return dev.ComputeUnits * 8
}

// PerDevice memoizes a value a problem builds for each accelerator it
// runs on: the kernel specs, whose traits come from replaying the
// problem's address traces through that device's LLC. Such a value is a
// pure function of the problem and the device's fields, so it is keyed by
// the device's value and needs no bypass for tracing, faults or
// co-execution. It lives in its Problem, which bounds it to one entry per
// device the problem meets; there is no eviction.
//
// Get returns the stored value itself, so callers must treat it as
// read-only; no caller writes into a returned spec map or array. The zero
// value is ready to use and must not be copied after first use.
type PerDevice[T any] struct {
	mu   sync.Mutex
	vals map[device.Device]T
}

// Get returns the value for dev, calling build on the first request for
// dev's value. Concurrent callers wait for one build; a panicking build
// stores nothing.
func (p *PerDevice[T]) Get(dev *device.Device, build func() T) T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.vals[*dev]; ok {
		return v
	}
	v := build()
	if p.vals == nil {
		p.vals = map[device.Device]T{}
	}
	p.vals[*dev] = v
	return v
}

// Traits replays a sampled address trace (byte addresses, each touching
// accessBytes) through the device's last-level cache and converts the
// outcome into the timing model's memory traits:
//
//   - missRate: the fraction of requested bytes that DRAM must supply,
//   - coalesce: the efficiency lost to fetching whole lines for partial
//     use (scattered accesses fetch 64 bytes to deliver 8).
//
// The per-access cache miss rate is also returned for Table I reporting.
func Traits(dev *device.Device, addrs []uint64, accessBytes int) (missRate, coalesce, accessMissRate float64) {
	if len(addrs) == 0 || accessBytes <= 0 {
		return 0, 1, 0
	}
	cfg := cache.Config{SizeBytes: dev.L2SizeBytes, LineBytes: dev.CacheLineBytes, Ways: dev.L2Ways}
	c := cache.New(cfg)
	for _, a := range addrs {
		c.AccessRange(a, accessBytes)
	}
	st := c.Stats()
	accessMissRate = st.MissRate()
	requested := float64(len(addrs) * accessBytes)
	fetched := float64(st.Misses) * float64(dev.CacheLineBytes)
	ratio := fetched / requested
	if ratio <= 1 {
		return ratio, 1, accessMissRate
	}
	return 1, 1 / ratio, accessMissRate
}
