package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// This file generalizes the scalar threshold t ∈ [0, 100] to a
// partition vector over N heterogeneous devices — the paper's
// extension beyond the single CPU+GPU pair: "the values of the
// threshold(s) now can be treated as a vector, unlike a scalar in the
// simple CPU+GPU case" (Section II).
//
// A Partition assigns each device a non-negative percentage share of
// the input, with the shares summing to 100. The Identify stage
// searches the (N-1)-dimensional simplex by cyclic coordinate descent:
// each pass fixes all but one device, exposes that device's share as a
// scalar threshold over its feasible segment (the slack between the
// moving device and the designated remainder device), and delegates to
// an ordinary scalar Searcher. Every evaluation therefore flows
// through the existing evalTracker engine — bounded pool, grid-order
// commit, recycled arenas — so a 2-device partition search is the
// scalar threshold search, observation for observation.

// Partition is a work partition over N heterogeneous devices: share i
// is the percentage of the input assigned to device i. A valid
// partition has at least two non-negative shares summing to 100 at
// micropercent resolution (the engine's memo resolution; see key).
type Partition []float64

// Devices returns the number of devices the partition spans.
func (p Partition) Devices() int { return len(p) }

// Clone returns an independent copy of the partition.
func (p Partition) Clone() Partition { return append(Partition(nil), p...) }

// Sum returns the total of all shares.
func (p Partition) Sum() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// String renders the shares as "60/30/10".
func (p Partition) String() string {
	buf := make([]byte, 0, 8*len(p))
	for i, v := range p {
		if i > 0 {
			buf = append(buf, '/')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return string(buf)
}

// EqualPartition returns the uniform partition over n devices. The
// last device absorbs the rounding remainder so the shares sum to 100
// exactly.
func EqualPartition(n int) Partition {
	if n < 2 {
		return nil
	}
	p := make(Partition, n)
	share := 100 / float64(n)
	var sum float64
	for i := 0; i < n-1; i++ {
		p[i] = share
		sum += share
	}
	p[n-1] = 100 - sum
	return p
}

// PartitionError reports an invalid partition vector with the
// offending component (or the sum) identified, mirroring the
// structured range check in EstimateThreshold. Every API that accepts
// a caller-supplied partition rejects malformed vectors with this
// error instead of silently renormalizing them.
type PartitionError struct {
	// Shares is a copy of the rejected vector.
	Shares Partition
	// Index is the offending component, or -1 when the sum (or the
	// vector's shape) is at fault.
	Index int
	// Sum is the total of the shares, meaningful when Index == -1.
	Sum float64
	// Reason is the human-readable cause.
	Reason string
}

// Error implements error.
func (e *PartitionError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("core: invalid partition %s: share %d %s", e.Shares, e.Index, e.Reason)
	}
	return fmt.Sprintf("core: invalid partition %s: %s (sum %g)", e.Shares, e.Reason, e.Sum)
}

// Validate checks that the partition has at least two finite,
// non-negative shares summing to 100 after rounding at micropercent
// resolution. It returns a *PartitionError describing the first
// violation, or nil.
func (p Partition) Validate() error {
	if len(p) < 2 {
		return &PartitionError{
			Shares: p.Clone(), Index: -1,
			Reason: fmt.Sprintf("needs at least 2 device shares, got %d", len(p)),
		}
	}
	var sum float64
	for i, s := range p {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return &PartitionError{Shares: p.Clone(), Index: i, Reason: "is not finite"}
		}
		if s < 0 {
			return &PartitionError{Shares: p.Clone(), Index: i, Reason: "is negative"}
		}
		sum += s
	}
	if key(sum) != key(100) {
		return &PartitionError{Shares: p.Clone(), Index: -1, Sum: sum, Reason: "shares must sum to 100"}
	}
	return nil
}

// ValidateDevices is Validate plus a shape check against a platform of
// devices devices: the vector must carry exactly one share per device.
func (p Partition) ValidateDevices(devices int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(p) != devices {
		return &PartitionError{
			Shares: p.Clone(), Index: -1, Sum: p.Sum(),
			Reason: fmt.Sprintf("has %d shares, platform has %d devices", len(p), devices),
		}
	}
	return nil
}

// PartitionWorkload is a heterogeneous algorithm instance whose work
// partition is a share vector over N >= 2 devices.
type PartitionWorkload interface {
	// Name identifies the workload in reports.
	Name() string
	// Devices returns the number of devices the workload spans.
	Devices() int
	// EvaluatePartition runs the heterogeneous algorithm with the
	// given partition and returns the simulated wall-clock time. The
	// same concurrency contract as Workload.Evaluate applies: parallel
	// searches call it from multiple goroutines on the same receiver.
	// The slice is borrowed from a recycled buffer — implementations
	// must not retain or mutate it past the call.
	EvaluatePartition(p Partition) (time.Duration, error)
}

// SampledPartition is a partition workload that supports the sampling
// framework (the vector analogue of Sampled).
type SampledPartition interface {
	PartitionWorkload
	// SamplePartition builds the miniature instance using the provided
	// generator and returns a partition workload over the sample along
	// with the simulated cost of constructing it.
	SamplePartition(ctx context.Context, r *xrand.Rand) (PartitionWorkload, time.Duration, error)
	// ExtrapolatePartition maps the best partition found on the sample
	// to a partition for the full input.
	ExtrapolatePartition(p Partition) Partition
}

// PartitionRaceEstimator is the vector analogue of RaceEstimator: all
// devices race over the (sampled) input independently and the observed
// processing rates yield a coarse share vector. The returned cost is
// the simulated duration of the race.
type PartitionRaceEstimator interface {
	EstimatePartitionByRace() (Partition, time.Duration, error)
}

// PartitionPoint is one (partition, simulated time) observation.
type PartitionPoint struct {
	P    Partition
	Time time.Duration
}

// SimplexResult is the outcome of a partition search. For a 2-device
// workload it carries exactly the scalar SearchResult's observations:
// Curve[i].P[0] equals the scalar curve's Curve[i].T and every other
// field matches bit for bit.
type SimplexResult struct {
	// Best is the partition with the minimum observed time.
	Best Partition
	// BestTime is the simulated time at Best.
	BestTime time.Duration
	// Evals is the number of EvaluatePartition calls made.
	Evals int
	// Cost is the total simulated time across all evaluations (plus
	// any race cost).
	Cost time.Duration
	// Curve holds every observation, in evaluation order.
	Curve []PartitionPoint
}

// SimplexSearcher is an Identify strategy over the partition simplex.
// lo and hi bound each device's share, intersected with feasibility
// (shares must sum to 100); negative lo is clamped to 0.
type SimplexSearcher interface {
	Name() string
	SearchPartition(ctx context.Context, w PartitionWorkload, lo, hi float64) (SimplexResult, error)
}

// sharesPool recycles the per-evaluation share buffers of axisView so
// the partition hot path allocates nothing in steady state, matching
// the scalar engine's alloc-per-eval discipline.
var sharesPool = sync.Pool{New: func() any { return new([]float64) }}

// axisView exposes one axis of a partition as a scalar Workload: a
// threshold t becomes the full partition with the axis device's share
// set to t, the remainder device absorbing the slack, and every other
// share fixed at the base snapshot. Because the view is an ordinary
// Workload, the scalar searchers (and with them the parallel
// evaluation engine) drive the simplex search unchanged.
type axisView struct {
	w    PartitionWorkload
	base Partition // snapshot of the fixed coordinates; immutable during a pass
	axis int
	rem  int
}

// Name implements Workload.
func (a *axisView) Name() string { return a.w.Name() }

// Evaluate implements Workload. Safe for concurrent use: the base
// snapshot is read-only and the assembled partition is call-local.
func (a *axisView) Evaluate(t float64) (time.Duration, error) {
	bp := sharesPool.Get().(*[]float64)
	p := append((*bp)[:0], a.base...)
	slack := a.base[a.axis] + a.base[a.rem]
	r := slack - t
	if r < 0 {
		// Float guard only: searchers never probe beyond the segment
		// [lo, slack], so any negative here is rounding noise.
		r = 0
	}
	p[a.axis] = t
	p[a.rem] = r
	d, err := a.w.EvaluatePartition(Partition(p))
	*bp = p
	sharesPool.Put(bp)
	return d, err
}

// slack returns the movable budget on this axis.
func (a *axisView) slack() float64 { return a.base[a.axis] + a.base[a.rem] }

// partitionFor materializes the partition the view evaluates at t,
// writing into dst (which must have len(base)).
func (a *axisView) partitionFor(t float64, dst Partition) {
	copy(dst, a.base)
	r := a.slack() - t
	if r < 0 {
		r = 0
	}
	dst[a.axis] = t
	dst[a.rem] = r
}

// axisRaceView is an axisView over a workload that supports race
// estimation: the per-axis coarse guess is the raced share of the
// axis device, so RaceThenFine works per axis. For 2 devices this is
// exactly the scalar race estimate.
type axisRaceView struct {
	axisView
	re PartitionRaceEstimator
}

// EstimateByRace implements RaceEstimator.
func (a *axisRaceView) EstimateByRace() (float64, time.Duration, error) {
	p, cost, err := a.re.EstimatePartitionByRace()
	if err != nil {
		return 0, 0, err
	}
	if len(p) != len(a.base) {
		return 0, 0, fmt.Errorf("core: race estimate for %s returned %d shares, want %d", a.w.Name(), len(p), len(a.base))
	}
	return p[a.axis], cost, nil
}

// newAxisView builds the scalar view of one axis, forwarding race
// support when the underlying workload provides it. The base snapshot
// is copied so the caller may keep mutating its current point.
func newAxisView(w PartitionWorkload, base Partition, axis, rem int) Workload {
	v := axisView{w: w, base: base.Clone(), axis: axis, rem: rem}
	if re, ok := w.(PartitionRaceEstimator); ok {
		return &axisRaceView{axisView: v, re: re}
	}
	return &v
}

// checkStart rejects a workload spanning fewer than two devices and a
// start vector (nil is allowed) that is invalid or sized for another
// device count.
func checkStart(w PartitionWorkload, start Partition) error {
	n := w.Devices()
	if n < 2 {
		return fmt.Errorf("core: partition workload %s spans %d devices, need at least 2", w.Name(), n)
	}
	if start == nil {
		return nil
	}
	if err := start.Validate(); err != nil {
		return err
	}
	if len(start) != n {
		return &PartitionError{
			Shares: start.Clone(), Index: -1, Sum: start.Sum(),
			Reason: fmt.Sprintf("has %d shares, workload %s spans %d devices", len(start), w.Name(), n),
		}
	}
	return nil
}

// DefaultSimplexRounds bounds the cyclic coordinate-descent rounds of
// SimplexSearch.
const DefaultSimplexRounds = 8

// SimplexSearch minimizes a partition workload by cyclic coordinate
// descent over the N-1 free axes (the last device is the remainder):
// each pass searches one device's share over its feasible segment with
// the scalar Axis searcher, holding the other devices fixed, and the
// descent stops when a full round brings no improvement or MaxRounds
// is reached.
//
// With 2 devices there is a single free axis whose segment is the full
// [lo, min(hi, 100)] range regardless of the start point, and a
// deterministic searcher cannot improve on a repeated pass over an
// unchanged segment — so exactly one pass runs, and the search is
// bit-identical to Axis.Search on the equivalent scalar workload:
// same Best (share 0), BestTime, Evals, Cost, and Curve.
type SimplexSearch struct {
	// Axis is the per-axis scalar strategy (default CoarseToFine{}).
	Axis Searcher
	// Start seeds the descent; nil means the equal split. Must be a
	// valid Partition of the workload's device count. With 2 devices
	// the start is irrelevant (see above).
	Start Partition
	// MaxRounds bounds the descent rounds (default
	// DefaultSimplexRounds). Convergence detection costs one final
	// no-improvement round of axis searches.
	MaxRounds int
}

func (s SimplexSearch) axis() Searcher {
	if s.Axis == nil {
		return CoarseToFine{}
	}
	return s.Axis
}

func (s SimplexSearch) maxRounds() int {
	if s.MaxRounds <= 0 {
		return DefaultSimplexRounds
	}
	return s.MaxRounds
}

// Name implements SimplexSearcher.
func (s SimplexSearch) Name() string {
	return fmt.Sprintf("simplex(%s)", s.axis().Name())
}

// SearchPartition implements SimplexSearcher.
func (s SimplexSearch) SearchPartition(ctx context.Context, w PartitionWorkload, lo, hi float64) (SimplexResult, error) {
	if err := checkStart(w, s.Start); err != nil {
		return SimplexResult{}, err
	}
	n := w.Devices()
	if lo < 0 {
		lo = 0
	}
	cur := s.Start.Clone()
	if cur == nil {
		cur = EqualPartition(n)
	}

	rounds := s.maxRounds()
	if n == 2 {
		// A single free axis converges in one pass: the segment is
		// independent of the current point, so a second pass would
		// re-run the identical deterministic search.
		rounds = 1
	}
	var (
		res      SimplexResult
		curTime  time.Duration
		haveTime bool
		rem      = n - 1
	)
	for round := 0; round < rounds; round++ {
		improved := false
		for ax := 0; ax < n-1; ax++ {
			if err := ctx.Err(); err != nil {
				return SimplexResult{}, err
			}
			segLo, segHi := lo, hi
			if slack := cur[ax] + cur[rem]; segHi > slack {
				segHi = slack
			}
			if segLo > segHi {
				continue // the axis cannot take a feasible share
			}
			view := newAxisView(w, cur, ax, rem)
			sr, err := s.axis().Search(ctx, view, segLo, segHi)
			if err != nil {
				return SimplexResult{}, err
			}
			res.Evals += sr.Evals
			res.Cost += sr.Cost
			res.Curve = appendAxisCurve(res.Curve, view, sr.Curve)
			if !haveTime || sr.BestTime < curTime {
				// Strict improvement: on ties the incumbent (earliest
				// observed) point wins, matching the scalar tracker's
				// tie rule.
				slack := cur[ax] + cur[rem]
				cur[ax] = sr.Best
				cur[rem] = slack - sr.Best
				if cur[rem] < 0 {
					cur[rem] = 0
				}
				curTime = sr.BestTime
				haveTime = true
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if !haveTime {
		return SimplexResult{}, ErrNoEvaluations
	}
	res.Best = cur
	res.BestTime = curTime
	return res, nil
}

// appendAxisCurve converts one axis pass's scalar curve into partition
// points. The partitions share a single flat backing array, so a pass
// costs two allocations regardless of its evaluation count.
func appendAxisCurve(dst []PartitionPoint, view Workload, curve []EvalPoint) []PartitionPoint {
	if len(curve) == 0 {
		return dst
	}
	var av *axisView
	switch v := view.(type) {
	case *axisView:
		av = v
	case *axisRaceView:
		av = &v.axisView
	}
	n := len(av.base)
	flat := make([]float64, len(curve)*n)
	for i, p := range curve {
		q := Partition(flat[i*n : (i+1)*n : (i+1)*n])
		av.partitionFor(p.T, q)
		dst = append(dst, PartitionPoint{P: q, Time: p.Time})
	}
	return dst
}

// ExhaustiveSimplex enumerates the whole simplex at stride Step
// (default 1): the gold-standard "best possible partition" the sampled
// search is compared to. The innermost axis of each slice is swept
// through the parallel evaluation engine, so the enumeration scales
// with WithParallelism while remaining bit-identical to a sequential
// scan; ties resolve to the lexicographically smallest share vector
// (the first observed, as in the scalar tracker). With 2 devices this
// is exactly Exhaustive{Step}.
type ExhaustiveSimplex struct {
	Step float64
}

func (s ExhaustiveSimplex) step() float64 {
	if s.Step <= 0 {
		return 1
	}
	return s.Step
}

// Name implements SimplexSearcher.
func (s ExhaustiveSimplex) Name() string {
	return fmt.Sprintf("exhaustive-simplex(step=%g)", s.step())
}

// SearchPartition implements SimplexSearcher.
func (s ExhaustiveSimplex) SearchPartition(ctx context.Context, w PartitionWorkload, lo, hi float64) (SimplexResult, error) {
	if err := checkStart(w, nil); err != nil {
		return SimplexResult{}, err
	}
	n := w.Devices()
	if lo < 0 {
		lo = 0
	}
	step := s.step()
	var (
		res      SimplexResult
		haveTime bool
		base     = make(Partition, n)
	)
	// assign fixes axis ax at each grid value and recurses; the last
	// free axis (n-2) is swept through the engine in one shot.
	var assign func(ax int, remaining float64) error
	assign = func(ax int, remaining float64) error {
		segHi := hi
		if segHi > remaining {
			segHi = remaining
		}
		if lo > segHi {
			return nil // infeasible slice: fixed shares already exceed the budget
		}
		if ax == n-2 {
			base[ax], base[n-1] = 0, remaining
			view := newAxisView(w, base, ax, n-1)
			sr, err := Exhaustive{Step: step}.Search(ctx, view, lo, segHi)
			if err != nil {
				return err
			}
			res.Evals += sr.Evals
			res.Cost += sr.Cost
			res.Curve = appendAxisCurve(res.Curve, view, sr.Curve)
			if !haveTime || sr.BestTime < res.BestTime {
				best := base.Clone()
				best[ax] = sr.Best
				best[n-1] = remaining - sr.Best
				if best[n-1] < 0 {
					best[n-1] = 0
				}
				res.Best, res.BestTime = best, sr.BestTime
				haveTime = true
			}
			return nil
		}
		grid := appendGridPoints(nil, lo, segHi, step)
		for _, g := range grid {
			base[ax] = g
			if err := assign(ax+1, remaining-g); err != nil {
				return err
			}
		}
		return nil
	}
	if err := assign(0, 100); err != nil {
		return SimplexResult{}, err
	}
	if !haveTime {
		return SimplexResult{}, ErrNoEvaluations
	}
	return res, nil
}

// PartitionEstimate is the sampling framework's outcome for a
// partition workload (the vector analogue of Estimate).
type PartitionEstimate struct {
	// Partition is the extrapolated share vector for the full input.
	Partition Partition
	// SamplePartition is the best partition found on the sample(s)
	// (componentwise median across repeats, before extrapolation).
	SamplePartition Partition
	// SampleCost is the simulated cost of building the sample(s).
	SampleCost time.Duration
	// IdentifyCost is the simulated cost of all sample evaluations.
	IdentifyCost time.Duration
	// Evals is the number of sample evaluations performed.
	Evals int
	// Repeats is the number of independent samples used.
	Repeats int
}

// Overhead returns the total simulated estimation cost.
func (e *PartitionEstimate) Overhead() time.Duration { return e.SampleCost + e.IdentifyCost }

// EstimatePartition runs Sample → Identify → Extrapolate for a
// partition workload. The Config is interpreted exactly as in
// EstimateThreshold — Searcher becomes the per-axis strategy of a
// SimplexSearch, Lo/Hi bound each share, Seed/Repeats/Parallelism
// drive the same pre-split RNG streams and repeat pool — and
// Config.Start (validated, never renormalized) seeds the descent. On
// a 2-device workload the whole pipeline is bit-identical to
// EstimateThreshold: same samples, same searches, and the CPU share
// of the returned partition equals the scalar estimate exactly.
//
// Repeats are combined by componentwise median, which stays on the
// simplex up to rounding noise; the result is projected back exactly
// by clamping negatives and rescaling (a no-op for identity
// extrapolation and any 2-device workload).
func EstimatePartition(ctx context.Context, w SampledPartition, cfg Config) (est *PartitionEstimate, err error) {
	c := cfg.withDefaults()
	if err := checkStart(w, c.Start); err != nil {
		return nil, err
	}
	n := w.Devices()
	if c.Parallelism > 0 {
		ctx = WithParallelism(ctx, c.Parallelism)
	}
	searcher := SimplexSearch{Axis: c.Searcher, Start: c.Start}
	ctx, pspan := obs.StartSpan(ctx, "pipeline")
	pspan.SetAttr("workload", w.Name())
	pspan.SetAttr("searcher", searcher.Name())
	pspan.SetAttr("devices", strconv.Itoa(n))
	pspan.SetAttr("repeats", strconv.Itoa(c.Repeats))
	defer func() {
		pspan.RecordError(err)
		pspan.Finish()
	}()

	lo, hi := c.Lo, c.Hi
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return nil, fmt.Errorf("core: threshold range [%g, %g] is empty", lo, hi)
	}
	// The shared repeat runner pre-splits the same per-repeat RNG
	// streams as EstimateThreshold, so partition and scalar pipelines
	// draw identical samples from the same seed.
	p := repeatPipeline[PartitionWorkload, Partition]{
		name:   w.Name(),
		sample: w.SamplePartition,
		identify: func(ctx context.Context, sw PartitionWorkload) (Partition, int, time.Duration, error) {
			res, err := searcher.SearchPartition(ctx, sw, lo, hi)
			return res.Best, res.Evals, res.Cost, err
		},
		format: Partition.String,
	}
	tot, err := p.run(ctx, c)
	if err != nil {
		return nil, err
	}
	est = &PartitionEstimate{
		Repeats:      c.Repeats,
		SampleCost:   tot.sampleCost,
		IdentifyCost: tot.identifyCost,
		Evals:        tot.evals,
	}
	_, espan := obs.StartSpan(ctx, "extrapolate")
	defer espan.Finish()
	est.SamplePartition = medianPartition(tot.bests, n)
	full := w.ExtrapolatePartition(est.SamplePartition.Clone())
	proj, err := projectToSimplex(full)
	if err != nil {
		err = fmt.Errorf("core: extrapolating %s partition: %w", w.Name(), err)
		espan.RecordError(err)
		return nil, err
	}
	est.Partition = proj
	espan.SetAttr("sample_partition", est.SamplePartition.String())
	espan.SetAttr("partition", est.Partition.String())
	return est, nil
}

// medianPartition combines repeat results componentwise — for every
// device, the median of its shares across repeats (the same median as
// the scalar pipeline, applied per component).
func medianPartition(bests []Partition, n int) Partition {
	if len(bests) == 1 {
		return bests[0].Clone()
	}
	out := make(Partition, n)
	col := make([]float64, len(bests))
	for i := 0; i < n; i++ {
		for j, b := range bests {
			col[j] = b[i]
		}
		out[i] = median(col)
	}
	return out
}

// projectToSimplex clamps negative shares to zero and rescales so the
// shares sum to 100 exactly (at micropercent resolution the rescale is
// a no-op for vectors that already sum to 100). It errors when no
// share is positive.
func projectToSimplex(p Partition) (Partition, error) {
	out := p.Clone()
	var sum float64
	for i, s := range out {
		if s < 0 {
			out[i] = 0
			s = 0
		}
		sum += s
	}
	if sum <= 0 {
		return nil, &PartitionError{Shares: p.Clone(), Index: -1, Sum: sum, Reason: "no positive share to project onto the simplex"}
	}
	if key(sum) != key(100) {
		for i := range out {
			out[i] *= 100 / sum
		}
	}
	return out, nil
}

// AsPartition adapts a scalar threshold workload to the 2-device
// partition interface: share vector [t, 100-t] ↔ threshold t. The
// adapter forwards Sampled and RaceEstimator support when the
// underlying workload provides them, so every scalar searcher behaves
// identically through the partition path — the N=2 parity the simplex
// machinery is verified against.
func AsPartition(w Workload) PartitionWorkload {
	base := scalarPartition{w: w}
	_, sampled := w.(Sampled)
	_, raced := w.(RaceEstimator)
	switch {
	case sampled && raced:
		return &scalarPartitionFull{scalarPartitionSampled{base}}
	case sampled:
		return &scalarPartitionSampled{base}
	case raced:
		return &scalarPartitionRace{base}
	default:
		return &base
	}
}

type scalarPartition struct{ w Workload }

// Name implements PartitionWorkload.
func (s *scalarPartition) Name() string { return s.w.Name() }

// Devices implements PartitionWorkload.
func (s *scalarPartition) Devices() int { return 2 }

// EvaluatePartition implements PartitionWorkload: the first share is
// the scalar threshold.
func (s *scalarPartition) EvaluatePartition(p Partition) (time.Duration, error) {
	if len(p) != 2 {
		return 0, &PartitionError{
			Shares: p.Clone(), Index: -1, Sum: p.Sum(),
			Reason: fmt.Sprintf("has %d shares, scalar workload %s spans 2 devices", len(p), s.w.Name()),
		}
	}
	return s.w.Evaluate(p[0])
}

type scalarPartitionSampled struct{ scalarPartition }

// SamplePartition implements SampledPartition.
func (s *scalarPartitionSampled) SamplePartition(ctx context.Context, r *xrand.Rand) (PartitionWorkload, time.Duration, error) {
	sw, cost, err := s.w.(Sampled).Sample(ctx, r)
	if err != nil {
		return nil, 0, err
	}
	return AsPartition(sw), cost, nil
}

// ExtrapolatePartition implements SampledPartition.
func (s *scalarPartitionSampled) ExtrapolatePartition(p Partition) Partition {
	t := s.w.(Sampled).Extrapolate(p[0])
	return Partition{t, 100 - t}
}

type scalarPartitionRace struct{ scalarPartition }

// EstimatePartitionByRace implements PartitionRaceEstimator.
func (s *scalarPartitionRace) EstimatePartitionByRace() (Partition, time.Duration, error) {
	g, cost, err := s.w.(RaceEstimator).EstimateByRace()
	if err != nil {
		return nil, 0, err
	}
	return Partition{g, 100 - g}, cost, nil
}

type scalarPartitionFull struct{ scalarPartitionSampled }

// EstimatePartitionByRace implements PartitionRaceEstimator.
func (s *scalarPartitionFull) EstimatePartitionByRace() (Partition, time.Duration, error) {
	g, cost, err := s.w.(RaceEstimator).EstimateByRace()
	if err != nil {
		return nil, 0, err
	}
	return Partition{g, 100 - g}, cost, nil
}
