package hetcc

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetsim"
	"repro/internal/xrand"
)

// MultiAlgorithm is the paper's Section II extension of Algorithm 1 to
// platforms with more than two devices: the vertex set is split into
// one contiguous range per device by a *vector* of share percentages,
// each device finds the components of its subgraph concurrently, and
// all cross edges merge the labelings.
type MultiAlgorithm struct {
	Platform   *hetsim.MultiPlatform
	CPUThreads int
}

// NewMultiAlgorithm returns a MultiAlgorithm on the given platform.
func NewMultiAlgorithm(p *hetsim.MultiPlatform) *MultiAlgorithm {
	return &MultiAlgorithm{Platform: p, CPUThreads: p.CPU.Spec.Cores}
}

func (a *MultiAlgorithm) threads() int { return threads(a.CPUThreads, a.Platform.CPU) }

// MultiResult is the outcome of one multi-device CC run.
type MultiResult struct {
	Labels     []int32
	Components int
	// Time is the simulated wall-clock duration.
	Time time.Duration
	// DeviceTimes[0] is the CPU's phase duration; DeviceTimes[i] is
	// accelerator i-1's (including its input transfer).
	DeviceTimes []time.Duration
	// CrossEdges spans all part boundaries.
	CrossEdges int64
	Trace      hetsim.Trace
}

// Run executes multi-device CC with the given partition: share i of p
// is the percentage of vertices assigned to platform device i (device
// 0 is the CPU). A malformed vector, or one without exactly one share
// per device, is rejected with a *core.PartitionError, never silently
// renormalized.
func (a *MultiAlgorithm) Run(g *graph.Graph, p core.Partition) (*MultiResult, error) {
	if g == nil {
		return nil, fmt.Errorf("hetcc: nil graph")
	}
	if err := p.ValidateDevices(a.Platform.Devices()); err != nil {
		return nil, err
	}
	// Cut points in vertex space.
	nDev := len(p)
	cuts := make([]int, nDev+1)
	acc := 0.0
	for i, s := range p {
		acc += s
		cuts[i+1] = int(float64(g.N) * acc / 100)
		if cuts[i+1] > g.N {
			cuts[i+1] = g.N
		}
	}
	cuts[nDev] = g.N

	res := &MultiResult{DeviceTimes: make([]time.Duration, nDev)}

	// Partition pass on the CPU.
	partTime := ccPartitionTime(a.Platform.CPU, g)
	res.Trace.Add(hetsim.PhasePartition, "cpu", partTime)

	// Build per-device subgraphs and the global cross-edge list.
	parts, cross, err := partitionMulti(g, cuts)
	if err != nil {
		return nil, err
	}
	res.CrossEdges = int64(len(cross))

	// Per-device computation, overlapped.
	results := make([]*graph.CCResult, nDev)
	var wall time.Duration
	for i, part := range parts {
		var dt time.Duration
		if i == 0 {
			results[i] = graph.ParallelCPU(part, a.threads())
			dt = ccCPUTime(a.Platform.CPU, a.threads(), part)
			res.Trace.Add(hetsim.PhaseCompute, "cpu", dt)
		} else {
			results[i] = graph.ShiloachVishkin(part)
			transferIn := a.Platform.Link.Transfer(int64(4 * part.Arcs()))
			dt = transferIn + ccGPUTime(a.Platform.GPUs[i-1], part, results[i])
			res.Trace.Add(hetsim.PhaseTransfer, "link", transferIn)
			res.Trace.Add(hetsim.PhaseCompute, fmt.Sprintf("gpu%d", i-1), dt-transferIn)
		}
		res.DeviceTimes[i] = dt
		wall = hetsim.Overlap(wall, dt)
	}

	// Merge all partial labelings over the cross edges (on the first
	// accelerator, per Algorithm 1 line 9).
	labels, components := mergeMulti(g, cuts, results, cross)
	mergeDev := a.Platform.CPU
	mergeTarget := "cpu"
	if len(a.Platform.GPUs) > 0 {
		mergeDev = a.Platform.GPUs[0]
		mergeTarget = "gpu0"
	}
	mergeTime := ccMergeTime(mergeDev, len(cross))
	res.Trace.Add(hetsim.PhaseMerge, mergeTarget, mergeTime)
	transferOut := a.Platform.Link.Transfer(4 * int64(g.N))
	res.Trace.Add(hetsim.PhaseTransfer, "link", transferOut)

	res.Labels = labels
	res.Components = components
	res.Time = partTime + wall + mergeTime + transferOut
	return res, nil
}

// partitionMulti splits g into len(cuts)-1 contiguous vertex ranges
// (each renumbered from 0) and returns the edges crossing any boundary
// in original ids.
func partitionMulti(g *graph.Graph, cuts []int) ([]*graph.Graph, []graph.Edge, error) {
	nDev := len(cuts) - 1
	partOf := func(v int) int {
		for i := 1; i <= nDev; i++ {
			if v < cuts[i] {
				return i - 1
			}
		}
		return nDev - 1
	}
	edgeLists := make([][]graph.Edge, nDev)
	var cross []graph.Edge
	for u := 0; u < g.N; u++ {
		pu := partOf(u)
		for _, v := range g.Neighbors(u) {
			if int32(u) > v {
				continue
			}
			pv := partOf(int(v))
			if pu == pv {
				edgeLists[pu] = append(edgeLists[pu], graph.Edge{
					U: int32(u - cuts[pu]), V: v - int32(cuts[pu]),
				})
			} else {
				cross = append(cross, graph.Edge{U: int32(u), V: v})
			}
		}
	}
	parts := make([]*graph.Graph, nDev)
	for i := range parts {
		var err error
		parts[i], err = graph.FromEdges(cuts[i+1]-cuts[i], edgeLists[i])
		if err != nil {
			return nil, nil, err
		}
	}
	return parts, cross, nil
}

// mergeMulti combines the per-part labelings into a global one over the
// cross edges and returns it with its component count.
func mergeMulti(g *graph.Graph, cuts []int, results []*graph.CCResult, cross []graph.Edge) ([]int32, int) {
	labels := make([]int32, g.N)
	for i, r := range results {
		base := int32(cuts[i])
		for v, l := range r.Labels {
			labels[cuts[i]+v] = l + base
		}
	}
	uf := graph.NewUnionFind(g.N)
	for _, e := range cross {
		uf.Union(int(labels[e.U]), int(labels[e.V]))
	}
	return labels, uf.ResolveMinLabelsInto(labels, make([]int32, g.N))
}

// MultiWorkload adapts multi-device CC to the partition framework
// (core.SampledPartition).
type MultiWorkload struct {
	name string
	g    *graph.Graph
	alg  *MultiAlgorithm
	// SampleSize as in Workload; 0 means √n.
	SampleSize int
	// KeepFrac as in Workload; 0 means 1/2.
	KeepFrac float64
}

var _ core.SampledPartition = (*MultiWorkload)(nil)

// NewMultiWorkload wraps g for partition-vector estimation.
func NewMultiWorkload(name string, g *graph.Graph, alg *MultiAlgorithm) *MultiWorkload {
	return &MultiWorkload{name: name, g: g, alg: alg}
}

// Name implements core.PartitionWorkload.
func (w *MultiWorkload) Name() string { return "cc-multi/" + w.name }

// Devices implements core.PartitionWorkload.
func (w *MultiWorkload) Devices() int { return w.alg.Platform.Devices() }

// EvaluatePartition implements core.PartitionWorkload.
func (w *MultiWorkload) EvaluatePartition(p core.Partition) (time.Duration, error) {
	res, err := w.alg.Run(w.g, p)
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// SamplePartition implements core.SampledPartition using the same
// contracted sampler as the two-device workload.
func (w *MultiWorkload) SamplePartition(ctx context.Context, r *xrand.Rand) (core.PartitionWorkload, time.Duration, error) {
	sub, cost, err := drawSample(w.name, w.g, w.alg.Platform.CPU, r, sampleSize(w.SampleSize, w.g.N), keepFrac(w.KeepFrac), false, false)
	if err != nil {
		return nil, 0, err
	}
	inner := &MultiWorkload{name: w.name + "-sample", g: sub, alg: w.alg}
	return inner, cost, nil
}

// ExtrapolatePartition implements core.SampledPartition (identity, as
// in the scalar CC case).
func (w *MultiWorkload) ExtrapolatePartition(p core.Partition) core.Partition { return p }
