package hetspmm

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// MaxDevices bounds the device count of a multi-device SpMM run. The
// evaluation hot path keeps its row cuts in a fixed-size stack array
// so that a partition evaluation, like the scalar one, allocates
// nothing.
const MaxDevices = 16

// MultiAlgorithm extends Algorithm 2 to a CPU plus several
// accelerators: the row space of A is cut into one contiguous block
// per device by a core.Partition of the *work volume* (not the row
// count), located by binary searches on the profile's prefix-sum
// index — the same O(log n) machinery the scalar split uses, applied
// k-1 times.
type MultiAlgorithm struct {
	Platform *hetsim.MultiPlatform
	// CPUThreads is the Gustavson worker count on the CPU side.
	CPUThreads int
}

// NewMultiAlgorithm returns a MultiAlgorithm on the given platform.
func NewMultiAlgorithm(p *hetsim.MultiPlatform) *MultiAlgorithm {
	return &MultiAlgorithm{Platform: p, CPUThreads: p.CPU.Spec.Cores}
}

func (a *MultiAlgorithm) threads() int { return threads(a.CPUThreads, a.Platform.CPU) }

// cuts locates the row boundaries of a share vector: device i gets
// rows [dst[i], dst[i+1]), with the boundary at the row whose prefix
// work is closest to the cumulative share (ascending targets keep the
// cuts monotone). dst must have len(p)+1 entries.
func (prof *Profile) cuts(p core.Partition, dst []int) {
	dst[0] = 0
	acc := 0.0
	for i := 0; i < len(p)-1; i++ {
		acc += p[i]
		cut := sparse.SplitRowByWorkPrefix(prof.loadPrefix, acc/100)
		if cut < dst[i] {
			cut = dst[i]
		}
		dst[i+1] = cut
	}
	dst[len(p)] = prof.a.Rows
	if dst[len(p)] < dst[len(p)-1] {
		dst[len(p)] = dst[len(p)-1]
	}
}

// SimTimeMulti returns the simulated wall-clock duration of a
// multi-device run at the given work partition, computed from the
// profile alone. Share i of p is device i's percentage of the total
// work volume (device 0 is the CPU). The partition is validated
// structurally — malformed vectors are a *core.PartitionError, never
// renormalized. Safe for concurrent use: it only reads the profile's
// prefix sums.
func (a *MultiAlgorithm) SimTimeMulti(p *Profile, shares core.Partition) (time.Duration, error) {
	n := a.Platform.Devices()
	if err := shares.ValidateDevices(n); err != nil {
		return 0, err
	}
	if n > MaxDevices {
		return 0, fmt.Errorf("hetspmm: platform has %d devices, max %d", n, MaxDevices)
	}
	var cutsArr [MaxDevices + 1]int
	cuts := cutsArr[:n+1]
	p.cuts(shares, cuts)

	nnzB := int64(p.b.NNZ())
	var (
		phase1  time.Duration
		combine int64 // total accelerator output appended on the CPU
	)
	// Phase I: every accelerator with work receives B and its slice of
	// A over the shared link (transfers serialize on one bus), and the
	// load vector is computed once on the first accelerator.
	for i := 1; i < n; i++ {
		seg := p.segmentOf(cuts[i], cuts[i+1])
		if seg.flops <= 0 && seg.nnzA <= 0 {
			continue
		}
		if !p.Resident {
			phase1 += a.Platform.Link.Transfer(bytesPerNNZ * (seg.nnzA + nnzB))
		}
		combine += seg.nnzOut
	}
	if n > 1 {
		phase1 += loadVecTime(a.Platform.GPUs[0], p.a)
	}

	// Phase II: all devices compute their blocks concurrently.
	wall := cpuSegTime(a.Platform.CPU, a.threads(), p.segmentOf(cuts[0], cuts[1]))
	for i := 1; i < n; i++ {
		t := gpuSegTime(a.Platform.GPUs[i-1], a.Platform.Link, p.segmentOf(cuts[i], cuts[i+1]))
		wall = hetsim.Overlap(wall, t)
	}

	// Combine: append all accelerator rows under the CPU rows.
	return phase1 + wall + combineTime(a.Platform.CPU, combine), nil
}

// DeviceTimesMulti returns each device's Phase II duration for
// processing the whole product alone — the racers of the coarse
// estimation step (constant phases excluded, as in DeviceTimes).
func (a *MultiAlgorithm) DeviceTimesMulti(p *Profile) []time.Duration {
	n := a.Platform.Devices()
	all := p.segmentOf(0, p.a.Rows)
	times := make([]time.Duration, n)
	times[0] = cpuSegTime(a.Platform.CPU, a.threads(), all)
	for i := 1; i < n; i++ {
		times[i] = gpuSegTime(a.Platform.GPUs[i-1], a.Platform.Link, all)
	}
	return times
}

// MultiWorkload adapts multi-device SpMM (computing A×A) to the
// partition framework.
type MultiWorkload struct {
	name string
	alg  *MultiAlgorithm
	prof *Profile
	// SampleDivisor is K; the sample is n/K × n/K. 0 means 4.
	SampleDivisor int
}

var (
	_ core.SampledPartition       = (*MultiWorkload)(nil)
	_ core.PartitionRaceEstimator = (*MultiWorkload)(nil)
)

// NewMultiWorkload profiles A×A and wraps it for partition-vector
// estimation on alg's platform.
func NewMultiWorkload(name string, a *sparse.CSR, alg *MultiAlgorithm) (*MultiWorkload, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("hetspmm: A must be square to form A×A, got %dx%d", a.Rows, a.Cols)
	}
	if alg.Platform.Devices() > MaxDevices {
		return nil, fmt.Errorf("hetspmm: platform has %d devices, max %d", alg.Platform.Devices(), MaxDevices)
	}
	prof, err := NewProfile(a, a)
	if err != nil {
		return nil, fmt.Errorf("hetspmm: profiling %s: %w", name, err)
	}
	return &MultiWorkload{name: name, alg: alg, prof: prof}, nil
}

// Name implements core.PartitionWorkload.
func (w *MultiWorkload) Name() string { return "spmm-multi/" + w.name }

// Devices implements core.PartitionWorkload.
func (w *MultiWorkload) Devices() int { return w.alg.Platform.Devices() }

// Profile returns the cached prefix profile.
func (w *MultiWorkload) Profile() *Profile { return w.prof }

// EvaluatePartition implements core.PartitionWorkload via the prefix
// profile; like the scalar Evaluate it is allocation-free and safe
// for concurrent use.
func (w *MultiWorkload) EvaluatePartition(p core.Partition) (time.Duration, error) {
	return w.alg.SimTimeMulti(w.prof, p)
}

// SamplePartition implements core.SampledPartition with the same
// uniform-submatrix sampler as the scalar workload; the miniature is
// shipped to every accelerator once and stays resident for the whole
// Identify search.
func (w *MultiWorkload) SamplePartition(ctx context.Context, r *xrand.Rand) (core.PartitionWorkload, time.Duration, error) {
	_, span := obs.StartSpan(ctx, "sample.spmm-multi")
	defer span.Finish()
	sub, cost, err := drawSample(span, w.name, w.prof, w.SampleDivisor, r, w.alg.Platform.CPU, w.alg.Platform.Link, w.alg.Platform.Devices()-1)
	if err != nil {
		return nil, 0, err
	}
	inner, err := NewMultiWorkload(w.name+"-sample", sub, w.alg)
	if err != nil {
		return nil, 0, err
	}
	inner.prof.Resident = true
	return inner, cost, nil
}

// ExtrapolatePartition implements core.SampledPartition: identity, as
// in the scalar unstructured-SpMM case.
func (w *MultiWorkload) ExtrapolatePartition(p core.Partition) core.Partition { return p }

// EstimatePartitionByRace implements core.PartitionRaceEstimator, the
// N-device generalization of the paper's coarse race: every device
// processes the whole product independently and the observed rates
// (inverse times) become the coarse shares; the race stops when the
// fastest device finishes.
func (w *MultiWorkload) EstimatePartitionByRace() (core.Partition, time.Duration, error) {
	times := w.alg.DeviceTimesMulti(w.prof)
	n := len(times)
	shares := make(core.Partition, n)
	var (
		total float64
		race  time.Duration
	)
	for i, t := range times {
		if t <= 0 {
			// Degenerate (empty) product: fall back to the equal split.
			return core.EqualPartition(n), 0, nil
		}
		if i == 0 || t < race {
			race = t
		}
		shares[i] = 1 / t.Seconds()
		total += shares[i]
	}
	var sum float64
	for i := 0; i < n-1; i++ {
		shares[i] = 100 * shares[i] / total
		sum += shares[i]
	}
	shares[n-1] = 100 - sum
	return shares, race, nil
}
