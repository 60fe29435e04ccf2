package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/lbs"
)

// Estimator is a sample source: an estimation algorithm that can draw
// one i.i.d. point sample and turn it into one unbiased per-sample
// estimate for each aggregate. LRAggregator, LNRAggregator and
// NNOBaseline all implement it; any future algorithm that does plugs
// into the same Driver and gets budgets, traces, early stopping and
// parallel execution for free.
type Estimator interface {
	// Step draws one random query location and returns one per-sample
	// estimate per aggregate. Queries issued during the step must
	// honor ctx.
	Step(ctx context.Context, aggs []Aggregate) ([]float64, error)
	// Service returns the Oracle the estimator queries, for cost
	// accounting (the paper's metric is the Oracle's QueryCount).
	Service() Oracle
	// Fork returns an independent estimator of the same configuration
	// over the same service, with its randomness re-seeded by seed.
	// Forks share no mutable state with the receiver or each other, so
	// a Driver may run them concurrently; the samples they draw stay
	// i.i.d. from the same query distribution.
	Fork(seed int64) Estimator
}

// All three algorithms of the paper plug into the Driver.
var (
	_ Estimator = (*LRAggregator)(nil)
	_ Estimator = (*LNRAggregator)(nil)
	_ Estimator = (*NNOBaseline)(nil)
)

// runConfig is the resolved option set of one Run call: the plan
// options every run shares (sample and query bounds, CI target, batch
// size, parallelism) plus the single-stream trace sinks.
type runConfig struct {
	PlanOptions
	progress func([]TracePoint)
	noTrace  bool
}

// RunOption configures an estimation run (see Driver.Run).
type RunOption func(*runConfig)

// WithMaxSamples stops the run after n completed point samples
// (0 = unlimited).
func WithMaxSamples(n int) RunOption {
	return func(c *runConfig) { c.MaxSamples = n }
}

// WithMaxQueries stops the run once the service has answered n queries
// on behalf of this run (0 = unlimited). The limit is checked between
// samples, so a run finishes samples in flight and may overshoot by
// one sample's worth of queries — per worker: under WithParallelism(p)
// the overshoot can reach p in-flight samples, and under WithBatch(m)
// each in-flight unit is a whole batch, so the bound is p×m samples'
// worth. Against a paid or hard-capped remote API, enforce the cap on
// the service side (ServiceOptions.Budget or the adapter) as well.
func WithMaxQueries(n int64) RunOption {
	return func(c *runConfig) { c.MaxQueries = n }
}

// ciMinSamples is the number of samples required before the TargetCI
// stopping rule is consulted; earlier the variance estimate is too
// noisy to trust.
const ciMinSamples = 16

// WithTargetCI stops the run once every aggregate's 95 % confidence
// half-width has fallen below rel × |estimate| (after a minimum of
// ciMinSamples samples). rel ≤ 0 disables the rule.
func WithTargetCI(rel float64) RunOption {
	return func(c *runConfig) { c.TargetCI = rel }
}

// WithProgress registers a streaming callback invoked after every
// completed sample with one TracePoint per aggregate (index-aligned
// with the aggs given to Run). The callback runs on the goroutine that
// called Run; it must not block for long and must not call back into
// the run.
func WithProgress(fn func(points []TracePoint)) RunOption {
	return func(c *runConfig) { c.progress = fn }
}

// WithoutTrace disables recording the per-sample trace in the
// Results (Result.Trace stays nil). The trace grows by one point per
// aggregate per sample, so effectively unbounded runs — long-lived
// estimation jobs streaming progress elsewhere — should not also
// accumulate it in memory. WithProgress still streams every point.
func WithoutTrace() RunOption {
	return func(c *runConfig) { c.noTrace = true }
}

// WithParallelism draws point samples from n concurrent workers: the
// estimator itself plus n−1 independent Forks. Every completed sample
// folds, in arrival order, into the run's one accumulator set. Samples
// are i.i.d. and order-free, so the estimate has exactly the same
// distribution as a serial run of equal size (though not the same
// bits); with a remote (latency-bound) Oracle the wall-clock time
// shrinks almost linearly in n. n ≤ 1 means serial.
func WithParallelism(n int) RunOption {
	return func(c *runConfig) { c.Parallelism = n }
}

// Driver executes an Estimator against its service: it repeatedly
// draws samples, folds them into running accumulators, records the
// estimate-versus-cost trace, and stops on whichever bound — sample
// count, query budget, confidence target, service exhaustion or
// context cancellation — triggers first.
//
// Cancellation is graceful: a context canceled mid-run behaves like an
// exhausted budget, returning the Results of the samples completed so
// far (an error is returned only when not even one sample finished).
type Driver struct {
	Est Estimator
}

// Run executes the estimation. See the package documentation for the
// stopping rules; with no options it runs until the service refuses
// further queries (lbs.ErrBudgetExhausted) or ctx is canceled. A run
// is one sample stream over d.Est (see stream.run), the same loop
// that executes each group of a QueryPlan.
func (d *Driver) Run(ctx context.Context, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("core: no aggregates given")
	}
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	svc := d.Est.Service()
	startQ := svc.QueryCount()
	s := newStream(d.Est, aggs, cfg.Parallelism)
	traces := make([][]TracePoint, len(aggs))
	points := make([]TracePoint, len(aggs))
	s.converged = func() bool { return ciMet(s.accs, cfg.TargetCI) }
	s.onSample = func(q int64, degraded bool) {
		for j := range aggs {
			points[j] = TracePoint{Queries: q, Samples: s.accs[j].N(), Estimate: s.accs[j].Mean(), Degraded: degraded}
			if !cfg.noTrace {
				traces[j] = append(traces[j], points[j])
			}
		}
		if cfg.progress != nil {
			cfg.progress(points)
		}
	}
	if _, err := s.run(ctx, svc, startQ, 0, &cfg.PlanOptions); err != nil {
		return nil, err
	}
	if s.samples == 0 {
		return nil, noSampleErr(ctx)
	}
	queries := svc.QueryCount() - startQ
	results := make([]Result, len(aggs))
	for j := range aggs {
		results[j] = resultOfAcc(aggs[j].Name, &s.accs[j], queries)
		results[j].DegradedSamples = s.degraded
		results[j].Trace = traces[j]
	}
	return results, nil
}

// noSampleErr is the error of a run that ended before completing a
// single sample: the context's, or budget exhaustion.
func noSampleErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("core: budget exhausted before completing a single sample")
}

// Run is the convenience entry point the estimators' Run methods
// delegate to: Run(ctx, est, aggs, opts...) ≡ (&Driver{Est: est}).Run.
func Run(ctx context.Context, est Estimator, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	return (&Driver{Est: est}).Run(ctx, aggs, opts...)
}

// stopErr reports whether err ends the run gracefully rather than
// fatally: the service budget is spent, or the run's own context was
// canceled. A context-flavored error while ctx is still live (e.g. a
// per-request http.Client timeout) is a transport failure, not a
// graceful stop — it must surface to the caller, or a flaky remote
// would silently truncate runs.
func stopErr(ctx context.Context, err error) bool {
	if errors.Is(err, lbs.ErrBudgetExhausted) {
		return true
	}
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// degradedCount walks the service's wrapper chain (lbs.Wrapper) for a
// layer reporting how many queries it answered degraded — a federation
// router's DegradedCount, or a TolerantQuerier's absorbed annotations.
// 0 when no layer tracks degradation (every non-federated stack).
func degradedCount(svc Oracle) int64 {
	cur := any(svc)
	for cur != nil {
		if dc, ok := cur.(interface{ DegradedCount() int64 }); ok {
			return dc.DegradedCount()
		}
		w, ok := cur.(lbs.Wrapper)
		if !ok {
			return 0
		}
		cur = w.Inner()
	}
	return 0
}

// ciMet reports whether every accumulator satisfies the relative
// confidence target.
func ciMet(accs []Accumulator, rel float64) bool {
	if rel <= 0 {
		return false
	}
	if accs[0].N() < ciMinSamples {
		return false
	}
	for i := range accs {
		if accs[i].CI95() > rel*math.Abs(accs[i].Mean()) {
			return false
		}
	}
	return true
}
