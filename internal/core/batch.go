package core

import (
	"context"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// BatchOracle is an Oracle with a native multi-point query path:
// m points answered under one budget charge sequence and (for remote
// adapters) one network round-trip. The batch result is index-aligned
// with the points; positions the budget could not cover are nil and
// the error is lbs.ErrBudgetExhausted (a served empty answer is a
// non-nil empty slice). The in-process simulator, the HTTP client
// adapter and the caching wrapper all implement it.
type BatchOracle interface {
	Oracle
	QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error)
	QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error)
}

// The simulator, every Querier wrapper, and the HTTP client all
// satisfy the batch interface.
var _ BatchOracle = (*lbs.Service)(nil)
var _ BatchOracle = (*lbs.CachedOracle)(nil)

// queryLRBatched answers pts through the oracle's batch path when it
// has one, falling back to sequential point queries otherwise. The
// fallback preserves batch semantics: on error it returns the answers
// completed so far (index-aligned, nil from the failed position on)
// together with the error.
func queryLRBatched(ctx context.Context, o Oracle, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	if bo, ok := o.(BatchOracle); ok {
		return bo.QueryLRBatch(ctx, pts, filter)
	}
	out := make([][]lbs.LRRecord, len(pts))
	for i, p := range pts {
		recs, err := o.QueryLR(ctx, p, filter)
		if err != nil {
			return out, err
		}
		if recs == nil {
			recs = []lbs.LRRecord{}
		}
		out[i] = recs
	}
	return out, nil
}

// BatchEstimator is an Estimator that can draw several point samples
// through the oracle's batch path, amortizing round-trips and
// budget/limiter synchronization. StepBatch returns one value slice
// per *completed* sample (at most m); on error the completed samples
// are still returned alongside it. NNOBaseline implements it — its
// per-sample queries are independent, so whole samples batch
// naturally; the Driver falls back to sequential Step calls for
// estimators that don't.
type BatchEstimator interface {
	Estimator
	StepBatch(ctx context.Context, aggs []Aggregate, m int) ([][]float64, error)
}

var _ BatchEstimator = (*NNOBaseline)(nil)

// WithBatch makes the Driver draw up to m point samples per estimator
// call (via StepBatch when the estimator implements BatchEstimator,
// sequential Step calls otherwise). Against a remote oracle this
// collapses m HTTP round-trips into one; against the simulator it
// amortizes budget and limiter synchronization. m ≤ 1 means one
// sample per call.
//
// Two accounting effects to be aware of: trace points of samples in
// the same batch share one post-batch query count, and when the
// budget dies mid-batch the samples that happened to complete cheaply
// (e.g. empty answers) are still folded in, so the stopping boundary
// is coarser by up to one batch — the same class of overshoot
// WithMaxQueries documents for parallel workers.
func WithBatch(m int) RunOption {
	return func(c *runConfig) { c.Batch = m }
}

// stepBatch draws up to m samples from est: natively batched when
// supported, a sequential Step loop otherwise. It returns the values
// of completed samples; on error the completed prefix is still
// returned.
func stepBatch(ctx context.Context, est Estimator, aggs []Aggregate, m int) ([][]float64, error) {
	if m < 1 {
		m = 1
	}
	if m > 1 {
		if be, ok := est.(BatchEstimator); ok {
			return be.StepBatch(ctx, aggs, m)
		}
	}
	out := make([][]float64, 0, m)
	for i := 0; i < m; i++ {
		vals, err := est.Step(ctx, aggs)
		if err != nil {
			return out, err
		}
		out = append(out, vals)
	}
	return out, nil
}
