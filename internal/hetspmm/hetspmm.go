// Package hetspmm implements the paper's Algorithm 2: heterogeneous
// sparse matrix–matrix multiplication (SpMM) on a CPU+GPU platform,
// after Matam, Indarapu and Kothapalli's hybrid row-row design.
//
// Phase I computes the load vector L_AB (L_AB[i] = work volume of row
// i of A in A×B) on the GPU and splits A horizontally at the row index
// where the prefix work is closest to r% of the total. Phase II runs
// Gustavson's row-row SpMM on both devices concurrently (A1×B on the
// CPU, A2×B on the GPU) and ships the GPU partial product back.
//
// Because every cost the simulator charges is a function of per-row
// quantities (row work, row output size), the simulated duration of a
// run at split r is computable from prefix sums without re-executing
// the multiplication. Profile captures those prefixes once per (A, B)
// pair; Workload.Evaluate uses it, which is what makes exhaustive
// 0..100 sweeps over full inputs affordable. Run always executes the
// real multiplication and its time equals the profile's (pinned by
// tests).
package hetspmm

import (
	"fmt"
	"time"

	"repro/internal/hetsim"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// Cost-model constants: cycle-equivalent ops and bytes per unit of
// measured work. CPU Gustavson pays hash-accumulator maintenance per
// multiply-add; the GPU's row-per-warp kernel is cheap on compute but
// pays memory traffic, divergence (CV of per-row work), and the PCIe
// round trip for its operand and result rows.
const (
	cpuOpsPerFlop   = 6
	cpuBytesPerFlop = 16
	gpuOpsPerFlop   = 2
	gpuBytesPerFlop = 12
	bytesPerNNZ     = 12 // (int32 col, float64 val) per stored entry
	// resultBytesPerFlop: the GPU kernel is an ESC-style Gustavson
	// (expand, sort, compress); the device streams its delta-
	// compressed partial products back while the host performs the
	// final row assembly. Return traffic therefore scales with the
	// multiply-add count — which a miniature sample preserves —
	// rather than with the merged output size, which it cannot.
	resultBytesPerFlop = 1
)

// Algorithm holds the execution configuration for heterogeneous SpMM.
type Algorithm struct {
	Platform *hetsim.Platform
	// CPUThreads is the Gustavson worker count on the CPU side.
	CPUThreads int
}

// NewAlgorithm returns an Algorithm on the given platform.
func NewAlgorithm(p *hetsim.Platform) *Algorithm {
	return &Algorithm{Platform: p, CPUThreads: p.CPU.Spec.Cores}
}

func (a *Algorithm) threads() int { return threads(a.CPUThreads, a.Platform.CPU) }

// threads is the CPU Gustavson worker count: the configured count, or
// the device's core count when unset.
func threads(configured int, cpu *hetsim.Device) int {
	if configured > 0 {
		return configured
	}
	return cpu.Spec.Cores
}

// Result is the outcome of one heterogeneous SpMM run.
type Result struct {
	// C is the product A×B.
	C *sparse.CSR
	// SplitRow is the row index separating the CPU part [0, SplitRow)
	// from the GPU part.
	SplitRow int
	// Time is the simulated wall-clock duration.
	Time time.Duration
	// CPUTime and GPUTime are the overlapped Phase II durations.
	CPUTime, GPUTime time.Duration
	// FlopsCPU and FlopsGPU are the multiply-add counts per device.
	FlopsCPU, FlopsGPU int64
	// Trace is the per-phase timeline.
	Trace hetsim.Trace
}

// Profile caches the per-row prefix quantities of one (A, B) pair so
// that the simulated duration at any split can be computed in O(log n).
type Profile struct {
	a, b *sparse.CSR
	// load[i] is the work volume of row i (L_AB), loadPrefix its
	// prefix sum, loadSqPrefix the prefix sum of squares (for CV).
	load         []int64
	loadPrefix   []int64
	loadSqPrefix []float64
	// outPrefix is the prefix sum of per-row output nonzeros.
	outPrefix []int64
	// nnzAPrefix is the prefix sum of per-row nnz of A.
	nnzAPrefix []int64
	// Resident marks A and B as already resident in GPU memory, so
	// runs skip the Phase I input transfer. The sampling pipeline
	// ships the miniature A' once and then iterates Identify runs
	// on-device, which is what keeps the estimation overhead near
	// the paper's 13%.
	Resident bool
}

// NewProfile computes the profile for A×B. It runs the load-vector
// computation and a symbolic multiplication: output row sizes come
// from sparse.RowOutputCounts, which marks columns without ever
// accumulating, sorting, or materializing C.
func NewProfile(a, b *sparse.CSR) (*Profile, error) {
	load, err := sparse.LoadVector(a, b)
	if err != nil {
		return nil, err
	}
	p := &Profile{
		a: a, b: b,
		load:         load,
		loadPrefix:   make([]int64, a.Rows+1),
		loadSqPrefix: make([]float64, a.Rows+1),
		nnzAPrefix:   make([]int64, a.Rows+1),
	}
	outCounts, _, err := sparse.RowOutputCounts(nil, a, b)
	if err != nil {
		return nil, err
	}
	// Reuse the counts buffer as the prefix array (shifted by one).
	p.outPrefix = append(outCounts, 0)
	copy(p.outPrefix[1:], outCounts)
	p.outPrefix[0] = 0
	for i := 0; i < a.Rows; i++ {
		p.loadPrefix[i+1] = p.loadPrefix[i] + load[i]
		lf := float64(load[i])
		p.loadSqPrefix[i+1] = p.loadSqPrefix[i] + lf*lf
		p.outPrefix[i+1] += p.outPrefix[i]
		p.nnzAPrefix[i+1] = p.nnzAPrefix[i] + int64(a.RowNNZ(i))
	}
	return p, nil
}

// TotalWork returns the total multiply-add count of A×B.
func (p *Profile) TotalWork() int64 { return p.loadPrefix[len(p.loadPrefix)-1] }

// SplitRow translates a split percentage r into the row index whose
// prefix work is closest to r% of the total (Algorithm 2, line 3).
// The profile's cached prefix sums make this an O(log n) binary
// search; a threshold sweep (101 grid points × repeats) never
// rescans the load vector.
func (p *Profile) SplitRow(r float64) int {
	return sparse.SplitRowByWorkPrefix(p.loadPrefix, r/100)
}

// cvBucket is the row-group granularity for the divergence statistic:
// the GPU schedules a warp per row group, so load imbalance is felt
// between 32-row buckets, not between individual rows. Bucketing also
// makes the statistic robust to the Poisson noise that element
// thinning induces on very sparse samples — genuine hub skew survives
// aggregation, sampling noise does not.
const cvBucket = 32

// rangeCV returns the coefficient of variation of the bucketed load
// over rows [lo, hi), delegating to the shared moment implementation
// in internal/stats so the simulator and the threshold store agree on
// the irregularity statistic.
func (p *Profile) rangeCV(lo, hi int) float64 {
	nb := (hi - lo) / cvBucket
	if nb < 2 {
		return 0
	}
	return stats.MomentsOf(nb, func(i int) int {
		b := lo + i*cvBucket
		return int(p.loadPrefix[b+cvBucket] - p.loadPrefix[b])
	}).CV
}

// segment describes one device's share of the work in prefix terms.
type segment struct {
	rows   int
	flops  int64
	nnzA   int64
	nnzOut int64
	cv     float64
}

func (p *Profile) segmentOf(lo, hi int) segment {
	return segment{
		rows:   hi - lo,
		flops:  p.loadPrefix[hi] - p.loadPrefix[lo],
		nnzA:   p.nnzAPrefix[hi] - p.nnzAPrefix[lo],
		nnzOut: p.outPrefix[hi] - p.outPrefix[lo],
		cv:     p.rangeCV(lo, hi),
	}
}

// loadVecTime charges Phase I's load-vector computation on the
// accelerator dev (Algorithm 2 lines 1-3: compute L_AB and locate the
// split row there; shipping the split index back is negligible).
func loadVecTime(dev *hetsim.Device, a *sparse.CSR) time.Duration {
	nnzA := int64(a.NNZ())
	return dev.Time(hetsim.Kernel{
		Name:             "spmm-loadvec",
		Ops:              nnzA + int64(a.Rows),
		Bytes:            8 * nnzA,
		Launches:         2,
		ParallelFraction: 1,
	})
}

// cpuSegTime charges Phase II's CPU side: Gustavson over one row
// segment with c threads. The CPU kernel hashes into a dense
// accumulator and schedules rows dynamically, so unlike the GPU it is
// insensitive to row-length irregularity — its CV is not charged. This
// asymmetry is what makes the optimal split input-dependent: skewed
// inputs push work toward the CPU.
func cpuSegTime(cpu *hetsim.Device, c int, seg segment) time.Duration {
	if seg.flops <= 0 && seg.nnzA <= 0 {
		return 0
	}
	return cpu.Time(hetsim.Kernel{
		Name:             "spmm-cpu",
		Ops:              cpuOpsPerFlop * seg.flops,
		Bytes:            cpuBytesPerFlop * seg.flops,
		Launches:         c,
		ParallelFraction: 0.98,
	})
}

// gpuSegTime charges Phase II's accelerator side: row-per-warp
// Gustavson over one row segment on dev, plus the result rows shipped
// back over link.
func gpuSegTime(dev *hetsim.Device, link *hetsim.Link, seg segment) time.Duration {
	if seg.flops <= 0 && seg.nnzA <= 0 {
		return 0
	}
	// Row setup (pointer loads, bin assignment) is charged per operand
	// entry streamed, not per row: GPU kernels compact empty rows
	// away, and entry counts — unlike row counts — shrink at the same
	// rate as flops under submatrix sampling.
	t := dev.Time(hetsim.Kernel{
		Name:             "spmm-gpu",
		Ops:              gpuOpsPerFlop*seg.flops + 8*seg.nnzA,
		Bytes:            gpuBytesPerFlop * seg.flops,
		Launches:         1,
		ParallelFraction: 1,
		IrregularityCV:   seg.cv,
	})
	return t + link.Transfer(resultBytesPerFlop*seg.flops)
}

// combineTime charges appending nnzOut accelerator-computed output
// entries under the CPU rows (a streaming memory pass on the CPU).
func combineTime(cpu *hetsim.Device, nnzOut int64) time.Duration {
	return cpu.Time(hetsim.Kernel{
		Name:             "spmm-combine",
		Ops:              nnzOut,
		Bytes:            bytesPerNNZ * nnzOut,
		Launches:         1,
		ParallelFraction: 0.9,
	})
}

// timeParts computes the per-phase simulated durations of a run at
// split percentage r. Both Run and Evaluate use it, so the profile
// path and the real-execution path charge identical times.
func (a *Algorithm) timeParts(p *Profile, r float64) (phase1, cpuT, gpuT, combine time.Duration, splitRow int) {
	splitRow = p.SplitRow(r)
	gpuSeg := p.segmentOf(splitRow, p.a.Rows)
	// Phase I: ship A and B to the GPU (unless already resident) and
	// compute the load vector there.
	if !p.Resident {
		phase1 = a.Platform.Link.Transfer(bytesPerNNZ * int64(p.a.NNZ()+p.b.NNZ()))
	}
	phase1 += loadVecTime(a.Platform.GPU, p.a)
	// Phase II: rows [0, splitRow) on the CPU, the suffix on the GPU.
	cpuT = cpuSegTime(a.Platform.CPU, a.threads(), p.segmentOf(0, splitRow))
	gpuT = gpuSegTime(a.Platform.GPU, a.Platform.Link, gpuSeg)
	return phase1, cpuT, gpuT, combineTime(a.Platform.CPU, gpuSeg.nnzOut), splitRow
}

// SimTime returns the simulated wall-clock duration of a run at split
// percentage r, computed from the profile alone.
func (a *Algorithm) SimTime(p *Profile, r float64) (time.Duration, error) {
	if r < 0 || r > 100 {
		return 0, fmt.Errorf("hetspmm: split %v outside [0, 100]", r)
	}
	phase1, cpuT, gpuT, combine, _ := a.timeParts(p, r)
	return phase1 + hetsim.Overlap(cpuT, gpuT) + combine, nil
}

// DeviceTimes returns the Phase II durations of processing the whole
// product on the CPU alone and on the GPU alone — the two "racers" of
// the coarse estimation step. Constant phases (load vector, combine)
// are excluded: the race balances the overlapped computation.
func (a *Algorithm) DeviceTimes(p *Profile) (cpu, gpu time.Duration) {
	_, cpuT, _, _, _ := a.timeParts(p, 100)
	_, _, gpuT, _, _ := a.timeParts(p, 0)
	return cpuT, gpuT
}

// Run executes Algorithm 2 for real: it computes C = A×B with the
// split percentage r, with rows [0, splitRow) on the (simulated) CPU
// and the rest on the (simulated) GPU, and charges simulated time.
func (a *Algorithm) Run(p *Profile, r float64) (*Result, error) {
	if r < 0 || r > 100 {
		return nil, fmt.Errorf("hetspmm: split %v outside [0, 100]", r)
	}
	phase1, cpuT, gpuT, combine, splitRow := a.timeParts(p, r)
	res := &Result{SplitRow: splitRow}

	a1 := p.a.RowSlice(0, splitRow)
	a2 := p.a.RowSlice(splitRow, p.a.Rows)
	c1, flops1, err := sparse.SpMMParallel(a1, p.b, a.threads())
	if err != nil {
		return nil, fmt.Errorf("hetspmm: CPU part: %w", err)
	}
	c2, flops2, err := sparse.SpMM(a2, p.b)
	if err != nil {
		return nil, fmt.Errorf("hetspmm: GPU part: %w", err)
	}
	res.C, err = sparse.VStack(c1, c2)
	if err != nil {
		return nil, fmt.Errorf("hetspmm: combining: %w", err)
	}
	res.FlopsCPU, res.FlopsGPU = flops1, flops2

	res.CPUTime, res.GPUTime = cpuT, gpuT
	res.Trace.Add(hetsim.PhasePartition, "gpu", phase1)
	res.Trace.Add(hetsim.PhaseCompute, "cpu", cpuT)
	res.Trace.Add(hetsim.PhaseCompute, "gpu", gpuT)
	res.Trace.Add(hetsim.PhaseMerge, "cpu", combine)
	res.Time = phase1 + hetsim.Overlap(cpuT, gpuT) + combine
	return res, nil
}
