package hetspmm

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// DefaultSampleDivisor is K in the paper's sampler: the sample is an
// n/K × n/K uniform submatrix, with K = 4 ("We use 4 as the value of K
// in our experiments").
const DefaultSampleDivisor = 4

// Workload adapts heterogeneous SpMM (computing A×A, as the paper's
// experiments do) to the core partitioning framework. The threshold is
// the split percentage r: the share of the work volume processed on
// the CPU.
type Workload struct {
	name string
	alg  *Algorithm
	prof *Profile
	// SampleDivisor is K; the sample is n/K × n/K. 0 means 4.
	SampleDivisor int
}

var (
	_ core.Sampled       = (*Workload)(nil)
	_ core.RaceEstimator = (*Workload)(nil)
)

// NewWorkload profiles A×A on alg's platform and wraps it for split
// estimation.
func NewWorkload(name string, a *sparse.CSR, alg *Algorithm) (*Workload, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("hetspmm: A must be square to form A×A, got %dx%d", a.Rows, a.Cols)
	}
	prof, err := NewProfile(a, a)
	if err != nil {
		return nil, fmt.Errorf("hetspmm: profiling %s: %w", name, err)
	}
	return &Workload{name: name, alg: alg, prof: prof}, nil
}

// Name implements core.Workload.
func (w *Workload) Name() string { return "spmm/" + w.name }

// Matrix returns the underlying input A.
func (w *Workload) Matrix() *sparse.CSR { return w.prof.a }

// Profile returns the cached prefix profile.
func (w *Workload) Profile() *Profile { return w.prof }

// Evaluate implements core.Workload via the prefix profile (identical
// to Run's charged time; see TestProfileTimeMatchesRun). It is safe
// for concurrent use: SimTime only reads the profile's prefix sums,
// which are built once in NewProfile and never mutated afterwards.
func (w *Workload) Evaluate(r float64) (time.Duration, error) {
	return w.alg.SimTime(w.prof, r)
}

// Sample implements core.Sampled: A' is an n/K × n/K submatrix of A
// chosen uniformly at random (Section IV-A), which preserves the
// sparsity structure of A in expectation. The cost charges the CPU
// for extracting and compacting the submatrix, and the host for the
// profile pass over A' (the load vector of the sample).
func (w *Workload) Sample(ctx context.Context, r *xrand.Rand) (core.Workload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.spmm")
	defer span.Finish()
	sub, cost, err := drawSample(span, w.name, w.prof, w.SampleDivisor, r, w.alg.Platform.CPU, w.alg.Platform.Link, 1)
	if err != nil {
		return nil, 0, err
	}
	span.SetAttr("sample_nnz", strconv.Itoa(sub.NNZ()))
	inner, err := NewWorkload(w.name+"-sample", sub, w.alg)
	if err != nil {
		return nil, 0, err
	}
	// The sample is shipped to the GPU once and stays resident for
	// the whole Identify search.
	inner.prof.Resident = true
	return inner, cost, nil
}

// drawSample is the SpMM sampler of both Workload and MultiWorkload:
// an n/K × n/K uniform submatrix A' of the profiled A (K = divisor,
// default DefaultSampleDivisor), recording its dimensions on span. The
// cost ships A' to each of accels accelerators, charges the CPU for
// extracting and compacting the submatrix, and charges the profile
// pass over A' (the load vector of the sample) that building the
// miniature's Profile performs.
func drawSample(span *obs.Span, name string, prof *Profile, divisor int, r *xrand.Rand, cpu *hetsim.Device, link *hetsim.Link, accels int) (*sparse.CSR, time.Duration, error) {
	if divisor <= 0 {
		divisor = DefaultSampleDivisor
	}
	n := prof.a.Rows
	size := max(n/divisor, 1)
	span.SetAttr("rows", strconv.Itoa(n))
	span.SetAttr("sample_rows", strconv.Itoa(size))
	sub, err := sparse.UniformSubmatrix(r, prof.a, size, size)
	if err != nil {
		err = fmt.Errorf("hetspmm: sampling %s: %w", name, err)
		span.RecordError(err)
		return nil, 0, err
	}
	cost := link.Transfer(int64(accels) * 2 * bytesPerNNZ * int64(sub.NNZ()))
	cost += cpu.Time(hetsim.Kernel{
		Name:             "spmm-sample",
		Ops:              int64(prof.a.NNZ()) + int64(n),
		Bytes:            bytesPerNNZ * int64(prof.a.NNZ()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	cost += cpu.Time(hetsim.Kernel{
		Name:             "spmm-sample-profile",
		Ops:              int64(sub.NNZ()) + int64(sub.Rows),
		Bytes:            8 * int64(sub.NNZ()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
	return sub, cost, nil
}

// Extrapolate implements core.Sampled: identity, per Section IV-A
// ("if A' preserves the sparsity structure of A, then we expect that
// r should be identical to r'").
func (w *Workload) Extrapolate(rSample float64) float64 { return rSample }

// EstimateByRace implements core.RaceEstimator, the paper's coarse
// estimation: "multiplying the sample matrices A' and B' on CPU and
// GPU independently in parallel and stop when either of them finishes.
// ... by observing the amount of work processed, we can roughly
// estimate the split percentage". Both devices process the whole
// product at their own rates; when the faster finishes, the work
// fractions are proportional to the rates, so the balanced CPU share
// is t_gpu/(t_cpu + t_gpu). The charged cost is the wall-clock of the
// race (both run concurrently, stopping at the first finisher).
func (w *Workload) EstimateByRace() (float64, time.Duration, error) {
	cpu, gpu := w.alg.DeviceTimes(w.prof)
	tc, tg := cpu.Seconds(), gpu.Seconds()
	if tc+tg == 0 {
		return 50, 0, nil
	}
	guess := 100 * tg / (tc + tg)
	cost := cpu
	if gpu < cpu {
		cost = gpu
	}
	return guess, cost, nil
}
