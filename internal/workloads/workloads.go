// Package workloads builds the in-tree estimation workloads by name —
// cc, spmm and scalefree — over a Table II replica or a loaded matrix,
// either as a scalar threshold workload or as an N-device partition
// workload. The hetserve daemon and the hetpart CLI share it, so both
// build the same workload and pick the same default searcher for the
// same input.
package workloads

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hetcc"
	"repro/internal/hetscale"
	"repro/internal/hetsim"
	"repro/internal/hetspmm"
	"repro/internal/sparse"
)

// Workload names.
const (
	CC        = "cc"
	SpMM      = "spmm"
	ScaleFree = "scalefree"
)

// Source is an input a workload is built over. datasets.Dataset
// implements it; Matrix wraps a loaded or uploaded matrix.
type Source interface {
	Graph() (*graph.Graph, error)
	Matrix() (*sparse.CSR, error)
}

// Matrix is a loaded matrix as a Source.
type Matrix struct{ M *sparse.CSR }

// Graph implements Source.
func (m Matrix) Graph() (*graph.Graph, error) { return graph.FromCSR(m.M) }

// Matrix implements Source.
func (m Matrix) Matrix() (*sparse.CSR, error) { return m.M, nil }

// Build constructs the named workload over src. With mp nil it is the
// scalar threshold workload on p, a core.Sampled; otherwise it is the
// N-device partition workload over mp, a core.SampledPartition. Only
// cc and spmm generalize to partition vectors: the scale-free study is
// inherently two-device.
func Build(workload, name string, src Source, p *hetsim.Platform, mp *hetsim.MultiPlatform) (any, error) {
	switch {
	case workload == CC:
		g, err := src.Graph()
		if err != nil {
			return nil, err
		}
		if mp != nil {
			return hetcc.NewMultiWorkload(name, g, hetcc.NewMultiAlgorithm(mp)), nil
		}
		return hetcc.NewWorkload(name, g, hetcc.NewAlgorithm(p)), nil
	case workload == SpMM:
		m, err := src.Matrix()
		if err != nil {
			return nil, err
		}
		if mp != nil {
			return hetspmm.NewMultiWorkload(name, m, hetspmm.NewMultiAlgorithm(mp))
		}
		return hetspmm.NewWorkload(name, m, hetspmm.NewAlgorithm(p))
	case workload == ScaleFree && mp == nil:
		m, err := src.Matrix()
		if err != nil {
			return nil, err
		}
		return hetscale.NewWorkload(name, m, hetscale.NewAlgorithm(p))
	case mp != nil:
		return nil, fmt.Errorf("workload %q does not support partition vectors (want %s or %s)", workload, CC, SpMM)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, CC, SpMM, ScaleFree)
	}
}

// DefaultSearcher is the per-workload Identify strategy: race-then-fine
// for SpMM (the paper's Section IV-A coarse estimation), gradient
// descent for the scale-free study, coarse-to-fine otherwise.
func DefaultSearcher(workload string) core.Searcher {
	switch workload {
	case SpMM:
		return core.RaceThenFine{Window: 4}
	case ScaleFree:
		return core.GradientDescent{}
	default:
		return core.CoarseToFine{}
	}
}
