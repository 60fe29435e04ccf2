package core

import (
	"context"
	"errors"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// lnrProber is LNR's view of the rank-only interface. It caches every
// probe answer as the ranked tuple IDs alone — cell inference reads
// nothing else — because the hidden database is static and re-probing
// an identical location is free for any reasonable client. Only
// *exact* repeat locations hit the cache; every distinct location
// costs a query. The full records (names, attributes, tags) are
// returned only by sample, the one probe whose tuples are weighted.
//
// When the oracle has a batch path, prefetch sends a probe set the
// inference is certain to visit next (a ring, a vertex round, the
// axis exits) as one batch query: the same points, answers and query
// count as probing them one by one, in fewer round trips.
type lnrProber struct {
	svc    Oracle
	batch  BatchOracle // nil when svc has no batch path
	filter lbs.Filter
	cache  map[geom.Point][]int64
}

func newLNRProber(svc Oracle, filter lbs.Filter) *lnrProber {
	batch, _ := svc.(BatchOracle)
	return &lnrProber{
		svc:    svc,
		batch:  batch,
		filter: filter,
		cache:  make(map[geom.Point][]int64),
	}
}

// probe returns the ranked tuple IDs at pt.
func (p *lnrProber) probe(ctx context.Context, pt geom.Point) ([]int64, error) {
	if ids, ok := p.cache[pt]; ok {
		return ids, nil
	}
	recs, err := p.svc.QueryLNR(ctx, pt, p.filter)
	if err != nil {
		return nil, err
	}
	return p.store(pt, recs), nil
}

// sample queries a sample location for its full records and caches
// their ranking for the cell inference that follows. The samplers draw
// from continuous densities, so a sample location repeats a probed one
// with probability zero; one that does is queried again.
func (p *lnrProber) sample(ctx context.Context, pt geom.Point) ([]lbs.LNRRecord, error) {
	recs, err := p.svc.QueryLNR(ctx, pt, p.filter)
	if err != nil {
		return nil, err
	}
	p.store(pt, recs)
	return recs, nil
}

// prefetch answers the points of pts not yet cached as one batch query
// and caches the answers; it is a no-op without a batch path or with
// fewer than two such points (a lone probe is one call either way).
// Callers pass only points the sequential inference probes next no
// matter what, so the queries are exactly those it would spend. A
// budget that dies mid-batch answers a prefix: prefetch caches it and
// reports no error, so the inference walks on and fails at the first
// unanswered point, exactly where probing one by one fails. Any other
// batch error is returned uncached.
func (p *lnrProber) prefetch(ctx context.Context, pts []geom.Point) error {
	if p.batch == nil {
		return nil
	}
	var miss []geom.Point
	for _, pt := range pts {
		if _, ok := p.cache[pt]; !ok && !slices.Contains(miss, pt) {
			miss = append(miss, pt)
		}
	}
	if len(miss) < 2 {
		return nil
	}
	answers, err := p.batch.QueryLNRBatch(ctx, miss, p.filter)
	if err != nil && !errors.Is(err, lbs.ErrBudgetExhausted) {
		return err
	}
	for i, recs := range answers {
		if recs != nil {
			p.store(miss[i], recs)
		}
	}
	return nil
}

// store caches the ranking of recs at pt and returns it.
func (p *lnrProber) store(pt geom.Point, recs []lbs.LNRRecord) []int64 {
	ids := make([]int64, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	p.cache[pt] = ids
	return ids
}

// rankIn returns the 0-based rank of id, or −1 when absent.
func rankIn(ids []int64, id int64) int {
	return slices.Index(ids, id)
}

// relOrder compares the distances of tuples a and b at a probe result:
// +1 when a is provably closer, −1 when b is provably closer, 0 when
// undecidable (both absent from the top-k). Presence alone decides the
// order when only one appears: a tuple inside the top-k is closer than
// every tuple outside it.
func relOrder(ids []int64, a, b int64) int {
	ra, rb := rankIn(ids, a), rankIn(ids, b)
	switch {
	case ra >= 0 && rb >= 0:
		if ra < rb {
			return +1
		}
		return -1
	case ra >= 0:
		return +1
	case rb >= 0:
		return -1
	default:
		return 0
	}
}

// predicateSearch performs the δ-bracketing binary search shared by
// all LNR edge discovery (Appendix A): given pred(a) = true and
// pred(b) = false (treating "unknown" as false), it returns points
// c3, c4 with |c3−c4| ≤ delta, pred(c3) = true, pred(c4) = false.
// Each evaluation is one probe.
func predicateSearch(a, b geom.Point, delta float64, pred func(geom.Point) (bool, error)) (c3, c4 geom.Point, err error) {
	lo, hi := a, b
	for lo.Dist(hi) > delta {
		mid := lo.Mid(hi)
		ok, err := pred(mid)
		if err != nil {
			return geom.Point{}, geom.Point{}, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi, nil
}

// edgeSearchParams holds the Appendix-A precision parameters derived
// from the target maximum edge error ε. Edge brackets stop at the
// coarse width δ_c = ε/2 (positional error ≤ ε/4 along the ray); two
// observed bisector points at least δ′ = ε/2 apart pin a cut line (see
// registerFlip). The fine width δ_f(r) = ε²/(32·r) shrinks with the
// anchor distance r and sizes the localization's third-bisector
// searches, which need angular rather than positional precision.
type edgeSearchParams struct {
	epsilon     float64
	deltaCoarse float64
	deltaPrime  float64
	deltaFloor  float64 // numerical floor for δ_f
}

func newEdgeSearchParams(eps float64, bounds geom.Rect) edgeSearchParams {
	return edgeSearchParams{
		epsilon:     eps,
		deltaCoarse: eps / 2,
		deltaPrime:  eps / 2,
		deltaFloor:  math.Max(eps*eps/(32*bounds.Diagonal()), bounds.Diagonal()*1e-12),
	}
}

// fineDelta returns the bracket width required at anchor distance r.
func (p edgeSearchParams) fineDelta(r float64) float64 {
	if r < p.epsilon {
		r = p.epsilon
	}
	d := p.epsilon * p.epsilon / (32 * r)
	if d < p.deltaFloor {
		d = p.deltaFloor
	}
	if d > p.deltaCoarse {
		d = p.deltaCoarse
	}
	return d
}

// delta is kept for call sites needing a generic small width (vertex
// coincidence checks, third-bisector searches).
func (p edgeSearchParams) delta() float64 { return p.fineDelta(p.epsilon * 8) }
