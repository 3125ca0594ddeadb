package hetcc

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/hetsim"
)

// runScratch is the reusable working memory of one heterogeneous CC
// run: the split index, the cross-edge list, per-device
// component state and the merge buffers. A parallel Identify sweep
// evaluates the same graph at dozens of thresholds; pooling one scratch
// per search worker makes each evaluation allocation-free after the
// first, which is where the sweep's time goes (see BENCH_search.json).
//
// A scratch serves one run at a time; the Result it produced aliases it
// and stays valid only until its next use.
type runScratch struct {
	cross []graph.Edge

	// split[u] is the index of the first neighbor of u that is >= the
	// partition bound — the per-row split index of the current
	// threshold. The hot path (runInto) never materializes the
	// sub-CSRs: the masked graph kernels and the cost models read the
	// original adjacency through this index instead. cpuArcs/gpuArcs
	// are the arc counts of the implied G_CPU and G_GPU.
	split            []int32
	cpuArcs, gpuArcs int64

	cpuRes, gpuRes graph.CCResult
	ccCPU, ccGPU   graph.CCScratch

	labels []int32
	uf     graph.UnionFind
	minOf  []int32
	trace  []hetsim.TraceEntry
}

// runScratchPool recycles run scratches across Workload.Evaluate calls;
// each concurrent evaluation checks one out for the duration of a run.
var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// adjLowerBound returns the first index in the sorted adjacency list
// whose neighbor id is >= bound. Short lists (the common case on road
// and mesh graphs) are scanned linearly — fewer branches and no
// closure than sort.Search; long lists binary-search.
func adjLowerBound(adj []int32, bound int32) int {
	if len(adj) <= 16 {
		k := 0
		for k < len(adj) && adj[k] < bound {
			k++
		}
		return k
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitRowsInto computes the per-row split index of g at vertex nCPU
// (split[u] = first position in row u with neighbor >= nCPU) together
// with the cross-edge list and the arc counts of the implied
// partitions. The sub-CSRs are never materialized — the masked kernels
// (graph.ParallelCPUPrefixInto, graph.ShiloachVishkinSuffixInto) and
// the split-indexed cost models consume the original adjacency through
// split, with results and charged work identical arc for arc.
func splitRowsInto(g *graph.Graph, nCPU int, s *runScratch) error {
	if nCPU < 0 || nCPU > g.N {
		return fmt.Errorf("hetcc: split %d outside [0, %d]", nCPU, g.N)
	}
	s.split = growInt32(s.split, g.N)
	s.cross = s.cross[:0]
	bound := int32(nCPU)
	var cpuArcs, gpuArcs int64
	rp, adj := g.RowPtr, g.Adj
	for u := 0; u < nCPU; u++ {
		row := adj[rp[u]:rp[u+1]]
		// Sorted rows: if the last neighbor is already below the bound
		// the whole row is CPU-side — the common case well inside the
		// prefix on locality-ordered graphs.
		if len(row) == 0 || row[len(row)-1] < bound {
			s.split[u] = int32(len(row))
			cpuArcs += int64(len(row))
			continue
		}
		k := adjLowerBound(row, bound)
		s.split[u] = int32(k)
		cpuArcs += int64(k)
		for _, v := range row[k:] {
			s.cross = append(s.cross, graph.Edge{U: int32(u), V: v})
		}
	}
	for u := nCPU; u < g.N; u++ {
		row := adj[rp[u]:rp[u+1]]
		// Mirror case: a first neighbor at or past the bound puts the
		// whole row GPU-side.
		if len(row) == 0 || row[0] >= bound {
			s.split[u] = 0
			gpuArcs += int64(len(row))
			continue
		}
		k := adjLowerBound(row, bound)
		s.split[u] = int32(k)
		gpuArcs += int64(len(row) - k)
	}
	s.cpuArcs, s.gpuArcs = cpuArcs, gpuArcs
	return nil
}

// mergeLabelsInto combines the partition-local labelings into a global
// one (buffered in s) using a union–find over the cross edges, then
// canonicalizes to minimum-vertex-id labels. The second return is the
// component count, picked up for free during canonicalization.
func mergeLabelsInto(g *graph.Graph, nCPU int, cpuRes, gpuRes *graph.CCResult, cross []graph.Edge, s *runScratch) ([]int32, int) {
	s.labels = growInt32(s.labels, g.N)
	labels := s.labels
	copy(labels[:nCPU], cpuRes.Labels)
	for v := nCPU; v < g.N; v++ {
		labels[v] = gpuRes.Labels[v-nCPU] + int32(nCPU)
	}
	s.uf.Reset(g.N)
	for _, e := range cross {
		s.uf.Union(int(labels[e.U]), int(labels[e.V]))
	}
	s.minOf = growInt32(s.minOf, g.N)
	return labels, s.uf.ResolveMinLabelsInto(labels, s.minOf)
}

// runInto executes Algorithm 1 drawing every buffer from s; res is
// fully overwritten and aliases s afterwards. Run wraps this with a
// fresh scratch (so its Results are independently owned); the sampling
// adapter's Evaluate wraps it with a pooled scratch.
func (a *Algorithm) runInto(g *graph.Graph, t float64, res *Result, s *runScratch) error {
	if g == nil {
		return fmt.Errorf("hetcc: nil graph")
	}
	if t < 0 || t > 100 {
		return fmt.Errorf("hetcc: threshold %v outside [0, 100]", t)
	}
	nCPU := int(float64(g.N) * t / 100)
	res.Labels = nil
	res.Components = 0
	res.Time, res.CPUTime, res.GPUTime = 0, 0, 0
	res.CrossEdges = 0
	res.Trace.Entries = s.trace[:0]

	// --- Phase I: partition -------------------------------------------
	// Splitting the CSR structure scans every vertex and arc once on
	// the CPU (memory-bound streaming pass). The implementation only
	// computes the per-row split index (sorted adjacency: one boundary
	// per row) and the cross edges; the kernels below consume the
	// original adjacency through the index, so no sub-CSR is built.
	// The simulated partition charge is unchanged — it models the
	// device's full split pass, not this host shortcut.
	if err := splitRowsInto(g, nCPU, s); err != nil {
		return err
	}
	res.CrossEdges = int64(len(s.cross))
	partTime := ccPartitionTime(a.Platform.CPU, g)
	res.Trace.Add(hetsim.PhasePartition, "cpu", partTime)

	// --- Phase II: overlapped heterogeneous compute -------------------
	crossArcs := graph.ParallelCPUPrefixInto(g.RowPtr, g.Adj, s.split, nCPU, a.threads(), &s.cpuRes, &s.ccCPU)
	cpuTime := ccCPUTimeSplit(a.Platform.CPU, a.threads(), s.split, nCPU, s.cpuArcs, crossArcs)
	res.Trace.Add(hetsim.PhaseCompute, "cpu", cpuTime)

	graph.ShiloachVishkinSuffixInto(g.RowPtr, g.Adj, s.split, nCPU, g.N, &s.gpuRes, &s.ccGPU)
	transferIn := a.Platform.Link.Transfer(4 * s.gpuArcs)
	gpuTime := transferIn + ccGPUTimeSplit(a.Platform.GPU, g, s.split, nCPU, s.gpuArcs, &s.gpuRes)
	res.Trace.Add(hetsim.PhaseTransfer, "link", transferIn)
	res.Trace.Add(hetsim.PhaseCompute, "gpu", gpuTime-transferIn)

	res.CPUTime, res.GPUTime = cpuTime, gpuTime

	// --- Merge: cross edges unify the two labelings (on the GPU per
	// the paper's line 9) -----------------------------------------------
	labels, components := mergeLabelsInto(g, nCPU, &s.cpuRes, &s.gpuRes, s.cross, s)
	mergeTime := ccMergeTime(a.Platform.GPU, len(s.cross))
	res.Trace.Add(hetsim.PhaseMerge, "gpu", mergeTime)
	transferOut := a.Platform.Link.Transfer(4 * int64(g.N))
	res.Trace.Add(hetsim.PhaseTransfer, "link", transferOut)

	res.Labels = labels
	res.Components = components
	res.Time = partTime + hetsim.Overlap(cpuTime, gpuTime) + mergeTime + transferOut
	s.trace = res.Trace.Entries // keep the grown trace buffer
	return nil
}
