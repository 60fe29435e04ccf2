package live

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// The read path. Every query resolves the snapshot pointer exactly
// once; a clean overlay delegates to the full-option service over the
// base (bit-for-bit the immutable behavior at near-zero overhead). A
// dirty overlay runs two candidate searches and one merge:
//
//  1. The base answers its CandidateCount nearest tuples, tombstoned
//     indices skipped inside the k-d tree walk (one bit test each) —
//     semantically identical to removing them: a kNN prefix of the
//     base with some tuples excluded is the kNN prefix of the base
//     minus those tuples.
//  2. The delta searches only out to the base's last candidate
//     distance, inclusively (the Router's two-phase bound): when the
//     base fills its candidate list, no delta tuple farther than that
//     can make the merged list, and one exactly at it may still win its
//     ID tie. The bound is widened by one ulp before it becomes the
//     search's maxDist: the Euclidean k-d search tests d² ≤ maxDist²,
//     and fl(sqrt(d²))² can fall below d² (sqrt 3 · sqrt 3 =
//     2.9999999999999996), which would drop a delta tuple tied with the
//     base's last candidate. The next float up squares to at least d²;
//     anything it over-admits ranks after that candidate and is cut by
//     the merge. With fewer base candidates the bound is the coverage
//     radius.
//  3. lbs.MergeCandidates merges the two (dist, ID)-ranked lists on
//     the distances the searches ranked by — no distance is evaluated
//     twice — and applies the logical selection: the same contract the
//     federation Router is pinned against.

// answerLR computes one merged LR answer against a fixed snapshot,
// without charging (callers charge the live meter first; the internal
// candidate services are unmetered).
func (d *Database) answerLR(ctx context.Context, s *snapshot, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	if s.clean() {
		return s.full.QueryLR(ctx, q, filter)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base := s.baseCand.QueryRanked(q, s.baseKeep(filter), math.Inf(1))
	if s.deltaCand == nil {
		return lbs.MergeCandidates(d.opts, base), nil
	}
	bound := math.Inf(1)
	if want := d.opts.CandidateCount(); len(base) >= want {
		bound = math.Nextafter(base[want-1].Dist, math.Inf(1))
	}
	return lbs.MergeCandidates(d.opts, base, s.deltaCand.QueryRanked(q, s.deltaKeep(filter), bound)), nil
}

// QueryLR implements lbs.Querier.
func (d *Database) QueryLR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	if err := d.meter.Charge(ctx); err != nil {
		return nil, err
	}
	return d.answerLR(ctx, d.snap.Load(), q, filter)
}

// QueryLNR implements lbs.Querier: the merged LR answer with locations
// stripped — exactly how a single service derives LNR from its ranked
// candidates, so rank orders match bit for bit.
func (d *Database) QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	if err := d.meter.Charge(ctx); err != nil {
		return nil, err
	}
	s := d.snap.Load()
	if s.clean() {
		return s.full.QueryLNR(ctx, q, filter)
	}
	recs, err := d.answerLR(ctx, s, q, filter)
	if err != nil {
		return nil, err
	}
	return lbs.StripLocations(recs), nil
}

// QueryLRBatch implements lbs.Querier with Service batch semantics:
// one atomic budget reservation, the granted prefix answered (all
// against one snapshot), nil for unanswered positions and
// ErrBudgetExhausted when the budget covered only part of the batch.
func (d *Database) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	out := make([][]lbs.LRRecord, len(pts))
	granted, err := d.meter.ChargeN(ctx, int64(len(pts)))
	if granted > 0 {
		s := d.snap.Load()
		for i := int64(0); i < granted; i++ {
			recs, qerr := d.answerLR(ctx, s, pts[i], filter)
			if qerr != nil {
				d.meter.Refund(granted - i)
				return out, qerr
			}
			out[i] = recs
		}
	}
	return out, err
}

// QueryLNRBatch implements lbs.Querier (see QueryLRBatch).
func (d *Database) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	out := make([][]lbs.LNRRecord, len(pts))
	granted, err := d.meter.ChargeN(ctx, int64(len(pts)))
	if granted > 0 {
		s := d.snap.Load()
		for i := int64(0); i < granted; i++ {
			recs, qerr := d.answerLR(ctx, s, pts[i], filter)
			if qerr != nil {
				d.meter.Refund(granted - i)
				return out, qerr
			}
			out[i] = lbs.StripLocations(recs)
		}
	}
	return out, err
}
