package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Workload names accepted by the /estimate endpoint.
const (
	WorkloadCC        = workloads.CC
	WorkloadSpMM      = workloads.SpMM
	WorkloadScaleFree = workloads.ScaleFree
)

// MaxEstimateDevices caps the ?devices= parameter: partition-vector
// estimation cost grows with the simplex dimension, and the default
// device inventories stop being meaningful beyond a handful of GPUs.
const MaxEstimateDevices = 8

// searcherFor resolves the Identify strategy. An empty name picks the
// workload's default (workloads.DefaultSearcher), the one the CLI uses.
func searcherFor(workload, name string) (core.Searcher, error) {
	switch name {
	case "":
		return workloads.DefaultSearcher(workload), nil
	case "exhaustive":
		return core.Exhaustive{}, nil
	case "coarse-to-fine":
		return core.CoarseToFine{}, nil
	case "gradient":
		return core.GradientDescent{}, nil
	case "race":
		return core.RaceThenFine{Window: 4}, nil
	default:
		return nil, fmt.Errorf("unknown searcher %q (want exhaustive, coarse-to-fine, gradient or race)", name)
	}
}
