package core

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// NNOOptions configures the LR-LBS-NNO baseline — the nearest-neighbor
// oracle sampler of Dalvi et al. (KDD 2011), the closest prior work
// the paper compares against.
//
// NNO uses only the top-1 tuple of each random query and estimates the
// area of its Voronoi cell approximately: an axis-aligned box around
// the tuple is grown by doubling until its corners stop returning the
// tuple, and the cell area is then estimated as the box area times the
// fraction of uniform probe points inside the box whose nearest
// neighbor is the tuple. Both the doubling probes and the area probes
// cost queries, and plugging the Monte-Carlo area estimate into the
// inverse-probability weight makes the estimator biased (Jensen) with
// high variance — the inefficiencies §1.2 attributes to [10].
type NNOOptions struct {
	// ProbesPerCell is the Monte-Carlo probe count for the area
	// estimate. Default 30 (the best-performing setting we found, as
	// the paper's §6 does for its NNO configuration).
	ProbesPerCell int
	// InitScale sets the initial box half-width as a multiple of the
	// query-to-tuple distance. Default 2.
	InitScale float64
	// MaxDoublings caps box growth. Default 16.
	MaxDoublings int
	// Region restricts sampling to a sub-region of the service's
	// coverage (zero = whole bounds). NNO has no cell-clipping
	// machinery, so region estimates carry extra edge bias — one more
	// inefficiency versus LR-LBS-AGG.
	Region geom.Rect
	// Sampler is the query-location distribution (uniform when nil).
	Sampler sampling.Sampler
	// Filter is an optional server-side selection pass-through.
	Filter lbs.Filter
	// Seed drives the randomness.
	Seed int64
}

// NNOBaseline implements LR-LBS-NNO.
type NNOBaseline struct {
	svc   Oracle
	opts  NNOOptions
	rng   *rand.Rand
	smp   sampling.Sampler
	bound geom.Rect
}

// NewNNOBaseline builds the baseline estimator over an LR service.
func NewNNOBaseline(svc Oracle, opts NNOOptions) *NNOBaseline {
	if opts.ProbesPerCell <= 0 {
		opts.ProbesPerCell = 30
	}
	if opts.InitScale <= 0 {
		opts.InitScale = 2
	}
	if opts.MaxDoublings <= 0 {
		opts.MaxDoublings = 16
	}
	region := opts.Region
	if region.Area() <= 0 {
		region = svc.Bounds()
	}
	smp := opts.Sampler
	if smp == nil {
		smp = sampling.NewUniform(region)
	}
	return &NNOBaseline{
		svc:   svc,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		smp:   smp,
		bound: region,
	}
}

func (b *NNOBaseline) query(ctx context.Context, p geom.Point) ([]lbs.LRRecord, error) {
	return b.svc.QueryLR(ctx, p, b.opts.Filter)
}

// isTop1 reports whether the answer's top tuple is id.
func isTop1(recs []lbs.LRRecord, id int64) bool {
	return len(recs) > 0 && recs[0].ID == id
}

// Step draws one random query and produces one per-sample estimate per
// aggregate.
func (b *NNOBaseline) Step(ctx context.Context, aggs []Aggregate) ([]float64, error) {
	q := b.smp.Sample(b.rng)
	recs, err := b.query(ctx, q)
	if err != nil {
		return nil, err
	}
	return b.finishSample(ctx, q, recs, aggs)
}

// StepBatch implements BatchEstimator: the m seed queries travel as
// one batch through the oracle's batch path, and each sample's
// Monte-Carlo probes batch as well (see finishSample). Samples whose
// seed the budget could not answer are skipped; completed samples are
// returned alongside any stop error.
func (b *NNOBaseline) StepBatch(ctx context.Context, aggs []Aggregate, m int) ([][]float64, error) {
	if m < 1 {
		m = 1
	}
	pts := make([]geom.Point, m)
	for i := range pts {
		pts[i] = b.smp.Sample(b.rng)
	}
	seeds, err := queryLRBatched(ctx, b.svc, pts, b.opts.Filter)
	out := make([][]float64, 0, m)
	for i, recs := range seeds {
		if recs == nil {
			continue // the budget died before this seed was answered
		}
		vals, ferr := b.finishSample(ctx, pts[i], recs, aggs)
		if ferr != nil {
			return out, ferr
		}
		out = append(out, vals)
	}
	return out, err
}

// finishSample runs the box-growing and probing phases for one seeded
// sample: q is the sampled query location, recs its (already charged)
// answer.
func (b *NNOBaseline) finishSample(ctx context.Context, q geom.Point, recs []lbs.LRRecord, aggs []Aggregate) ([]float64, error) {
	out := make([]float64, len(aggs))
	if len(recs) == 0 {
		return out, nil
	}
	t := recs[0] // NNO uses only the nearest neighbor
	// Phase 1: grow a box around t by doubling while any corner still
	// returns t as the nearest neighbor.
	half := b.opts.InitScale * math.Max(q.Dist(t.Loc), b.bound.Diagonal()*1e-6)
	for d := 0; d < b.opts.MaxDoublings; d++ {
		box := geom.NewRect(
			t.Loc.Sub(geom.Pt(half, half)),
			t.Loc.Add(geom.Pt(half, half)),
		)
		cornerHit := false
		for _, c := range box.Corners() {
			cr, err := b.query(ctx, b.bound.Clamp(c))
			if err != nil {
				return nil, err
			}
			if isTop1(cr, t.ID) {
				cornerHit = true
				break
			}
		}
		if !cornerHit {
			break
		}
		half *= 2
	}
	box := geom.NewRect(
		t.Loc.Sub(geom.Pt(half, half)),
		t.Loc.Add(geom.Pt(half, half)),
	)
	// Clip the probe box to the coverage bounds.
	box, ok := box.Intersect(b.bound)
	if !ok || box.Area() <= 0 {
		return out, nil
	}
	// Phase 2: Monte-Carlo area estimate. The probes are independent,
	// so they travel through the oracle's batch path when it has one
	// (one round-trip and one budget reservation instead of
	// ProbesPerCell); the probe points, their order and the query cost
	// are identical to the sequential loop.
	probes := make([]geom.Point, b.opts.ProbesPerCell)
	for i := range probes {
		probes[i] = geom.RandomInRect(b.rng, box)
	}
	answers, err := queryLRBatched(ctx, b.svc, probes, b.opts.Filter)
	if err != nil {
		return nil, err
	}
	hits := 0
	for _, pr := range answers {
		if isTop1(pr, t.ID) {
			hits++
		}
	}
	frac := float64(hits) / float64(b.opts.ProbesPerCell)
	if frac == 0 {
		// The probe box missed the cell entirely (can happen when the
		// cell is a sliver); fall back to the smallest resolvable
		// fraction, a pragmatic choice mirroring [10]'s bias
		// correction needs.
		frac = 0.5 / float64(b.opts.ProbesPerCell)
	}
	areaEst := frac * box.Area()
	// Approximate the selection probability as sampling-density ×
	// estimated cell area (exact only for uniform sampling over the
	// box; NNO has no exact-cell machinery to do better).
	density := b.smp.Density(t.Loc)
	if density <= 0 {
		return out, nil
	}
	p := density * areaEst
	rec := recordOfLR(t)
	for j := range aggs {
		out[j] = aggs[j].Value(rec) / p
	}
	return out, nil
}

// Service returns the Oracle this baseline queries, implementing
// Estimator.
func (b *NNOBaseline) Service() Oracle { return b.svc }

// Fork returns an independent baseline of the same configuration over
// the same service for the Driver's parallel mode. The fork seed
// mixes a draw from the receiver's generator with the caller-supplied
// index (see LRAggregator.Fork).
func (b *NNOBaseline) Fork(seed int64) Estimator {
	opts := b.opts
	opts.Seed = b.rng.Int63() ^ (seed << 32)
	return NewNNOBaseline(b.svc, opts)
}

// Run draws samples through the shared Driver until one of the
// configured bounds triggers (see RunOption); with no options it runs
// until the service budget is exhausted or ctx is canceled.
func (b *NNOBaseline) Run(ctx context.Context, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	return Run(ctx, b, aggs, opts...)
}
