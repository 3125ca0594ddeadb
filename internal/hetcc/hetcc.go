// Package hetcc implements the paper's Algorithm 1: heterogeneous
// connected components on a CPU+GPU platform, following Banerjee and
// Kothapalli's hybrid CC design.
//
// Phase I partitions the vertex set by a threshold t ∈ [0, 100]: the
// first n·t/100 vertices (and the edges among them) form G_CPU, the
// rest form G_GPU; edges with one endpoint on each side are cross
// edges. Phase II finds components of G_CPU on the CPU (partitioned
// multi-threaded DFS) and of G_GPU on the GPU (Shiloach–Vishkin),
// overlapped; the cross edges then merge the two labelings.
//
// All algorithms execute for real; the package charges simulated time
// for each phase through the hetsim device models using the work the
// algorithms actually performed (arcs scanned, SV rounds, bytes
// moved). The sampling adapter (Workload) plugs the whole thing into
// the core partitioning framework.
package hetcc

import (
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/hetsim"
)

// Algorithm holds the execution configuration for heterogeneous CC.
type Algorithm struct {
	Platform *hetsim.Platform
	// CPUThreads is c, the number of CPU worker threads Phase I
	// divides G_CPU across. Defaults to the platform's core count.
	CPUThreads int
}

// NewAlgorithm returns an Algorithm on the given platform.
func NewAlgorithm(p *hetsim.Platform) *Algorithm {
	return &Algorithm{Platform: p, CPUThreads: p.CPU.Spec.Cores}
}

func (a *Algorithm) threads() int { return threads(a.CPUThreads, a.Platform.CPU) }

// threads is the CPU worker count c: the configured count, or the
// device's core count when unset.
func threads(configured int, cpu *hetsim.Device) int {
	if configured > 0 {
		return configured
	}
	return cpu.Spec.Cores
}

// Result is the outcome of one heterogeneous CC run.
type Result struct {
	// Labels assigns each vertex its component's minimum vertex id.
	Labels []int32
	// Components is the number of connected components of G.
	Components int
	// Time is the simulated wall-clock duration of the run
	// (partition + overlapped compute + merge + transfers).
	Time time.Duration
	// CPUTime and GPUTime are the per-device phase durations that
	// were overlapped.
	CPUTime, GPUTime time.Duration
	// CrossEdges is the number of edges spanning the two partitions.
	CrossEdges int64
	// Trace is the per-phase timeline.
	Trace hetsim.Trace
}

// Run executes Algorithm 1 on g with threshold t (the percentage of
// vertices assigned to the CPU). Each call uses its own working
// memory, so the returned Result is independently owned; the sampling
// adapter's Evaluate uses the pooled scratch path instead (runInto).
func (a *Algorithm) Run(g *graph.Graph, t float64) (*Result, error) {
	res := &Result{}
	if err := a.runInto(g, t, res, new(runScratch)); err != nil {
		return nil, err
	}
	return res, nil
}

// ccCPUTime charges the partitioned multi-threaded DFS on a
// materialized G_CPU; the multi-accelerator runner uses it, and
// ccCPUTimeSplit is the same charge read through the split index.
func ccCPUTime(dev *hetsim.Device, c int, gCPU *graph.Graph) time.Duration {
	if gCPU.N == 0 {
		return 0
	}
	// Arcs leaving a thread's part must be reconciled by the merge
	// pass. Adjacency lists are sorted, so instead of testing every
	// arc the in-part neighbors of u form one contiguous run:
	// count them with two boundary searches and charge the rest.
	var crossPart int64
	for w := 0; w < c; w++ {
		lo := w * gCPU.N / c
		hi := (w + 1) * gCPU.N / c
		for u := lo; u < hi; u++ {
			adj := gCPU.Neighbors(u)
			inPart := adjLowerBound(adj, int32(hi)) - adjLowerBound(adj, int32(lo))
			crossPart += int64(len(adj) - inPart)
		}
	}
	return ccCPUCost(dev, c, int64(gCPU.Arcs()), crossPart, gCPU.DegreeCV())
}

// ccCPUTimeSplit is ccCPUTime reading G_CPU through the split index
// instead of a materialized sub-CSR: row u of G_CPU is the first
// split[u] arcs of g's row u, cpuArcs is their total, and crossPart is
// the cross-part arc count under the same c-way decomposition —
// returned by graph.ParallelCPUPrefixInto from the boundary searches
// its merge pass performs anyway, so the model charges the identical
// duration (same crossPart, arc count and degree CV, with the CV
// computed in stats.MomentsOf float order) without re-scanning a row.
func ccCPUTimeSplit(dev *hetsim.Device, c int, split []int32, nCPU int, cpuArcs, crossPart int64) time.Duration {
	if nCPU == 0 {
		return 0
	}
	return ccCPUCost(dev, c, cpuArcs, crossPart, degreeCVPrefix(split, nCPU, cpuArcs))
}

// ccCPUCost is the CPU charge of c-thread CC over a partition with
// arcs arcs, crossPart of them crossing thread parts, and degree CV
// cv. The per-thread parts are rebalanced dynamically (work stealing),
// so the DFS work is charged as near-fully-parallel over the total arc
// count; the cross-part label merge is a half-sequential union–find
// pass over part-crossing arcs.
func ccCPUCost(dev *hetsim.Device, c int, arcs, crossPart int64, cv float64) time.Duration {
	// A DFS edge visit is a dependent-load chain (fetch neighbor,
	// check label, branch, push): ~40 cycle-equivalent ops per arc
	// once cache misses are amortized in.
	const dfsOpsPerArc = 40
	dfs := hetsim.Kernel{
		Name:             "cc-dfs",
		Ops:              dfsOpsPerArc * arcs,
		Bytes:            9 * arcs, // adjacency + label touches
		Launches:         c,
		IrregularityCV:   cv,
		ParallelFraction: 0.98,
	}
	merge := hetsim.Kernel{
		Name:             "cc-cpu-merge",
		Ops:              12 * crossPart,
		Bytes:            8 * crossPart,
		Launches:         1,
		ParallelFraction: 0.5,
	}
	return dev.TimeAll(dfs, merge)
}

// degreeCVPrefix is graph.DegreeCV over the prefix partition's degrees
// (split[u] for u < n), float op for float op. arcs is the precomputed
// degree total; summing the integer-valued degrees in float64 is exact
// (every partial sum is an integer far below 2^53), so float64(arcs)
// is bit-identical to the reference's sequential accumulation.
func degreeCVPrefix(split []int32, n int, arcs int64) float64 {
	if n < 2 {
		return 0
	}
	mean := float64(arcs) / float64(n)
	if mean <= 0 {
		return 0
	}
	var m2 float64
	for i := 0; i < n; i++ {
		d := float64(split[i]) - mean
		m2 += d * d
	}
	m2 /= float64(n)
	if m2 <= 0 {
		return 0
	}
	return math.Sqrt(m2) / mean
}

// degreeCVSuffix is graph.DegreeCV over the suffix partition's degrees
// (row length minus split[u] for u in [bound, n)), float op for float
// op, with the sum pass replaced by the precomputed arc total (exact;
// see degreeCVPrefix).
func degreeCVSuffix(rowPtr []int64, split []int32, bound, n int, arcs int64) float64 {
	cnt := n - bound
	if cnt < 2 {
		return 0
	}
	mean := float64(arcs) / float64(cnt)
	if mean <= 0 {
		return 0
	}
	var m2 float64
	lo := rowPtr[bound]
	for u := bound; u < n; u++ {
		hi := rowPtr[u+1]
		d := float64(hi-lo-int64(split[u])) - mean
		m2 += d * d
		lo = hi
	}
	m2 /= float64(cnt)
	if m2 <= 0 {
		return 0
	}
	return math.Sqrt(m2) / mean
}

// ccGPUTime charges Shiloach–Vishkin on a materialized G_GPU from its
// measured counters.
func ccGPUTime(dev *hetsim.Device, gGPU *graph.Graph, r *graph.CCResult) time.Duration {
	if gGPU.N == 0 {
		return 0
	}
	return ccSVCost(dev, r, gGPU.DegreeCV())
}

// ccGPUTimeSplit is ccGPUTime with the suffix partition's degree CV
// computed through the split index.
func ccGPUTimeSplit(dev *hetsim.Device, g *graph.Graph, split []int32, nCPU int, gpuArcs int64, r *graph.CCResult) time.Duration {
	if g.N-nCPU == 0 {
		return 0
	}
	return ccSVCost(dev, r, degreeCVSuffix(g.RowPtr, split, nCPU, g.N, gpuArcs))
}

// ccSVCost charges Shiloach–Vishkin from its measured counters: every
// round launches a hooking kernel over the arcs and a jump kernel over
// the vertices; divergence grows with the degree irregularity cv.
func ccSVCost(dev *hetsim.Device, r *graph.CCResult, cv float64) time.Duration {
	return dev.Time(hetsim.Kernel{
		Name:             "cc-sv",
		Ops:              2 * r.EdgesVisited,
		Bytes:            10 * r.EdgesVisited,
		Launches:         2 * r.Rounds,
		ParallelFraction: 1, // per-kernel serialization is the launch latency
		IrregularityCV:   cv,
	})
}

// RunGPUOnly is the paper's "Naive" homogeneous baseline: the whole
// graph is shipped to the GPU and processed by Shiloach–Vishkin, with
// no partitioning.
func (a *Algorithm) RunGPUOnly(g *graph.Graph) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("hetcc: nil graph")
	}
	res := &Result{}
	svRes := graph.ShiloachVishkin(g)
	transferIn := a.Platform.Link.Transfer(int64(4 * g.Arcs()))
	gpuTime := ccGPUTime(a.Platform.GPU, g, svRes)
	transferOut := a.Platform.Link.Transfer(4 * int64(g.N))
	res.Trace.Add(hetsim.PhaseTransfer, "link", transferIn+transferOut)
	res.Trace.Add(hetsim.PhaseCompute, "gpu", gpuTime)
	res.Labels = svRes.Labels
	res.Components = svRes.Components
	res.GPUTime = transferIn + gpuTime
	res.Time = transferIn + gpuTime + transferOut
	return res, nil
}

// ccPartitionTime charges Phase I's split of g on the CPU: one
// memory-bound streaming pass over every vertex and arc.
func ccPartitionTime(cpu *hetsim.Device, g *graph.Graph) time.Duration {
	return cpu.Time(hetsim.Kernel{
		Name:             "partition",
		Ops:              int64(g.N) + int64(g.Arcs()),
		Bytes:            8 * int64(g.Arcs()),
		Launches:         1,
		ParallelFraction: 0.9,
	})
}

// ccMergeTime charges unifying the partial labelings over crossEdges
// cross edges on dev: a find plus a union per edge.
func ccMergeTime(dev *hetsim.Device, crossEdges int) time.Duration {
	return dev.Time(hetsim.Kernel{
		Name:             "merge",
		Ops:              12 * int64(crossEdges),
		Bytes:            8 * int64(crossEdges),
		Launches:         1,
		ParallelFraction: 1,   // lock-free parallel union-find
		IrregularityCV:   1.0, // pointer chasing
	})
}

// DefaultSampleSize returns the paper's sample size for CC: √n.
func DefaultSampleSize(n int) int {
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}
