package core

import (
	"context"
	"math"
)

// This file is the estimation engine: the one sample loop
// (stream.run) that every Driver run and every plan group goes
// through, and the executor of a QueryPlan as a streaming operator
// graph (see planner.go for the plan shape). Each group runs its own
// sample stream; the executor interleaves groups in checkpoint-sized
// chunks and re-allocates the remaining shared query budget across the
// still-unconverged groups by observed accumulator variance — the
// groups that need more samples to reach the confidence target get
// proportionally more of what is left.

// PlanProgress is the per-sample streaming event of Execute: one
// completed sample of one group, carrying the group's physical trace
// points and the finished per-spec partial results. The slices are
// reused between calls — consumers must copy what they keep (the same
// contract as WithProgress).
type PlanProgress struct {
	// Group indexes QueryPlan.Groups.
	Group int
	// Specs are the group's spec indices (QueryPlan.Groups[Group].Specs).
	Specs []int
	// Points holds one TracePoint per physical aggregate of the group,
	// index-aligned with the group's Aggs. Queries is relative to the
	// whole batch (the shared cost axis of the trace).
	Points []TracePoint
	// Partial holds one finished Result per spec in Specs (AVG folded
	// through RatioOf), index-aligned with Specs.
	Partial []Result
	// GroupSamples and GroupQueries are the group's own totals so far.
	GroupSamples int
	GroupQueries int64
	// Degraded marks the sample as drawn while the service answered
	// degraded (see TracePoint.Degraded).
	Degraded bool
}

// GroupAlloc is one group's slice of a checkpoint re-plan: its
// variance-driven need estimate (in samples) and the sample quota the
// allocator granted for the next chunk.
type GroupAlloc struct {
	Group   int     `json:"group"`
	Need    float64 `json:"need"`
	Samples int     `json:"samples"`
}

// ReplanEvent records one checkpoint-boundary budget re-allocation.
type ReplanEvent struct {
	Round int `json:"round"`
	// RemainingQueries is the shared budget left at the checkpoint
	// (-1 when the batch is unbounded).
	RemainingQueries int64        `json:"remaining_queries"`
	Allocs           []GroupAlloc `json:"allocs"`
}

// maxReplanEvents bounds the recorded re-plan history of unbounded
// multi-group runs; later events are dropped (the decisions keep
// happening, only the log truncates).
const maxReplanEvents = 256

// GroupReport is the post-run account of one plan group.
type GroupReport struct {
	Method        string   `json:"method"`
	Seed          int64    `json:"seed"`
	Specs         []int    `json:"specs"`
	Aggs          []string `json:"aggs"`
	Preds         int      `json:"preds"`
	NeedsLocation bool     `json:"needs_location,omitempty"`
	// CostPerSample is the modeled cost the first allocation used.
	CostPerSample float64 `json:"cost_per_sample"`
	Samples       int     `json:"samples"`
	Queries       int64   `json:"queries"`
	CIMet         bool    `json:"ci_met,omitempty"`
}

// BatchResult is the outcome of executing a QueryPlan: one Result per
// source spec (request order), plus the per-group accounts and the
// re-plan history.
type BatchResult struct {
	// Results are index-aligned with QueryPlan.Specs. Result.Queries
	// reports the owning group's spend (the shared stream each spec
	// rode), so Σ over distinct groups — not over specs — is the
	// batch total.
	Results []Result
	Groups  []GroupReport
	Replans []ReplanEvent
	// Samples is the total across groups; Queries the batch's whole
	// oracle spend.
	Samples int
	Queries int64
	// DegradedSamples counts samples (across groups) drawn while the
	// service answered degraded; 0 for a healthy run.
	DegradedSamples int
}

// stream is one sample stream in execution: the worker estimators
// that draw its samples, the physical aggregates they evaluate, and the
// one accumulator set every completed sample folds into. A Driver run
// is one stream; an executing QueryPlan runs one per group.
type stream struct {
	// ests are the step workers: the stream's estimator, then its
	// Fork(1)..Fork(p−1).
	ests     []Estimator
	aggs     []Aggregate
	accs     []Accumulator
	samples  int
	queries  int64
	degraded int
	done     bool
	ciMet    bool
	// converged is the CI stopping rule, consulted after every step.
	converged func() bool
	// onSample, when set, runs after every folded sample with the
	// sample's run-relative query count and degradation flag.
	onSample func(q int64, degraded bool)
}

// newStream sets up a stream over est with p step workers (p ≤ 1
// means serial). The forks are drawn before any sampling, so their
// seeds do not depend on how the run goes.
func newStream(est Estimator, aggs []Aggregate, p int) *stream {
	if p < 1 {
		p = 1
	}
	ests := make([]Estimator, p)
	ests[0] = est
	for i := 1; i < p; i++ {
		ests[i] = est.Fork(int64(i))
	}
	return &stream{ests: ests, aggs: aggs, accs: make([]Accumulator, len(aggs))}
}

// stepped is one finished worker step handed back to the caller.
type stepped struct {
	worker int
	m      int
	vals   [][]float64
	err    error
	// queries is the service's QueryCount right after the step.
	queries  int64
	degraded bool
}

// run draws up to quota samples (quota ≤ 0: no quota) from the stream.
// The calling goroutine makes every decision — quota, o.MaxSamples,
// o.MaxQueries, ctx, the CI stop — and folds every sample in arrival
// order; the workers only run stepBatch when handed a batch. With one
// worker the step runs inline, so the per-sample order is exactly
// check → step → fold → graceful stop → fatal error → CI. With more,
// up to len(ests) batches are in flight at once. The caps and a
// graceful stop only end dispatching: batches in flight finish and
// fold. A fatal error or the CI rule ends the stream where it stands:
// the steps in flight are canceled and their samples dropped, so the
// reported state is the one the rule judged.
//
// run sets s.done when MaxSamples or the CI rule retires the stream,
// reports exhausted when the shared budget (o.MaxQueries, the service,
// or ctx) ends the whole run, and returns only fatal errors.
func (s *stream) run(ctx context.Context, svc Oracle, startQ int64, quota int, o *PlanOptions) (exhausted bool, err error) {
	p := len(s.ests)
	stepCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan stepped, p)
	idle := make([]int, p)
	for i := range idle {
		idle[i] = p - 1 - i // worker 0 first
	}
	step := func(w, m int) {
		deg0 := degradedCount(svc)
		vals, err := stepBatch(stepCtx, s.ests[w], s.aggs, m)
		results <- stepped{worker: w, m: m, vals: vals, err: err, queries: svc.QueryCount(), degraded: degradedCount(svc) > deg0}
	}
	g0, q0 := svc.QueryCount(), s.queries
	taken, reserved := 0, 0 // samples folded this call; samples in flight
	for {
		for len(idle) > 0 && !exhausted && err == nil && !s.ciMet {
			m := o.Batch
			if m < 1 {
				m = 1
			}
			if quota > 0 {
				left := quota - taken - reserved
				if left <= 0 {
					break
				}
				m = min(m, left)
			}
			if o.MaxSamples > 0 {
				left := o.MaxSamples - s.samples - reserved
				if left <= 0 {
					s.done = true
					break
				}
				m = min(m, left)
			}
			if o.MaxQueries > 0 && svc.QueryCount()-startQ >= o.MaxQueries {
				exhausted = true
				break
			}
			if ctx.Err() != nil {
				break
			}
			w := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			reserved += m
			if p == 1 {
				step(w, m)
			} else {
				go step(w, m)
			}
		}
		if len(idle) == p {
			break
		}
		r := <-results
		idle = append(idle, r.worker)
		reserved -= r.m
		if err != nil || s.ciMet {
			continue // ended: drain the canceled steps, fold nothing
		}
		s.queries = q0 + svc.QueryCount() - g0
		q := r.queries - startQ
		for _, vals := range r.vals {
			for j := range s.aggs {
				s.accs[j].Add(vals[j])
			}
			s.samples++
			taken++
			if r.degraded {
				s.degraded++
			}
			if s.onSample != nil {
				s.onSample(q, r.degraded)
			}
		}
		switch {
		case stopErr(ctx, r.err):
			exhausted = true
		case r.err != nil:
			err = r.err
			cancel() // abort the other in-flight steps
		case s.converged():
			s.done, s.ciMet = true, true
			cancel()
		}
	}
	s.queries = q0 + svc.QueryCount() - g0
	return exhausted, err
}

// resultOfAcc assembles a Result from one accumulator; Driver runs and
// planned runs share it, so planned runs stay bit-identical to
// independent ones.
func resultOfAcc(name string, a *Accumulator, queries int64) Result {
	return Result{
		Name:     name,
		Estimate: a.Mean(),
		StdErr:   a.StdErr(),
		CI95:     a.CI95(),
		Samples:  a.N(),
		Queries:  queries,
	}
}

// specResult finishes one spec of group gi from the group's fused
// accumulators (RatioOf for AVG, pass-through otherwise).
func (p *QueryPlan) specResult(gi, li int, st *stream) Result {
	grp := &p.Groups[gi]
	e := grp.entries[li]
	name := p.Specs[grp.Specs[li]].name()
	if e.den < 0 {
		return resultOfAcc(name, &st.accs[e.num], st.queries)
	}
	r := RatioOf(
		resultOfAcc(grp.Aggs[e.num].Name, &st.accs[e.num], st.queries),
		resultOfAcc(grp.Aggs[e.den].Name, &st.accs[e.den], st.queries),
	)
	r.Name = name
	return r
}

// groupCIMet is the per-spec CI sink's stopping rule: every spec of
// the group has converged. Direct specs use the accumulator rule of
// ciMet; AVG specs use the delta-method CI of their ratio, and an
// undefined ratio (zero denominator) retires only once the
// denominator is confidently zero — no observed variance — so a
// selection that is merely rare keeps sampling.
func (p *QueryPlan) groupCIMet(gi int, st *stream) bool {
	rel := p.opts.TargetCI
	if rel <= 0 || st.samples < ciMinSamples {
		return false
	}
	grp := &p.Groups[gi]
	for li := range grp.entries {
		e := grp.entries[li]
		if e.den < 0 {
			a := &st.accs[e.num]
			if a.CI95() > rel*math.Abs(a.Mean()) {
				return false
			}
			continue
		}
		den := &st.accs[e.den]
		if den.Mean() == 0 {
			if den.CI95() > 0 {
				return false
			}
			continue
		}
		r := p.specResult(gi, li, st)
		if r.CI95 > rel*math.Abs(r.Estimate) {
			return false
		}
	}
	return true
}

// progressSink returns group gi's per-sample hook: it streams each
// completed sample through progress, in buffers reused across calls.
func (p *QueryPlan) progressSink(gi int, st *stream, progress func(PlanProgress)) func(q int64, degraded bool) {
	grp := &p.Groups[gi]
	points := make([]TracePoint, len(grp.Aggs))
	partial := make([]Result, len(grp.Specs))
	return func(q int64, degraded bool) {
		for j := range grp.Aggs {
			points[j] = TracePoint{Queries: q, Samples: st.accs[j].N(), Estimate: st.accs[j].Mean(), Degraded: degraded}
		}
		for li := range grp.entries {
			partial[li] = p.specResult(gi, li, st)
		}
		progress(PlanProgress{
			Group:        gi,
			Specs:        grp.Specs,
			Points:       points,
			Partial:      partial,
			GroupSamples: st.samples,
			GroupQueries: st.queries,
			Degraded:     degraded,
		})
	}
}

// need estimates how many more samples group gi wants, from its
// observed accumulator variance: for the worst spec, the total sample
// count that would shrink its 95 % CI to the target is
// n·(ci/(rel·|est|))², so the need is that minus what it already has.
// Before ciMinSamples (or with no target) the need falls back to one
// checkpoint — "unknown, keep probing".
func (p *QueryPlan) need(gi int, st *stream) float64 {
	unknown := float64(p.opts.CheckpointSamples)
	if st.samples < ciMinSamples {
		return unknown
	}
	rel := p.opts.TargetCI
	grp := &p.Groups[gi]
	worst := 0.0
	for li := range grp.entries {
		r := p.specResult(gi, li, st)
		if math.IsNaN(r.Estimate) || r.Estimate == 0 {
			if r.CI95 == 0 {
				continue // confidently zero: no need
			}
			return unknown * 4 // undefined scale: generous probe
		}
		relCI := r.CI95 / math.Abs(r.Estimate)
		var toGo float64
		if rel > 0 {
			// Samples to reach the target, minus samples held.
			toGo = float64(st.samples) * (relCI/rel*relCI/rel - 1)
		} else {
			// No target: weight by relative variance, so the noisiest
			// group drinks most of an open-ended budget.
			toGo = float64(st.samples) * relCI * relCI
		}
		if toGo > worst {
			worst = toGo
		}
	}
	return worst
}

// allocate divides the next checkpoint's samples across the active
// groups proportionally to their needs, scaled down when the modeled
// query cost of the round would overrun the remaining shared budget.
func (p *QueryPlan) allocate(round int, remaining int64, active []int, states []*stream) ([]int, ReplanEvent) {
	base := p.opts.CheckpointSamples
	ev := ReplanEvent{Round: round, RemainingQueries: remaining}
	needs := make([]float64, len(active))
	total := 0.0
	for i, gi := range active {
		needs[i] = p.need(gi, states[gi])
		total += needs[i]
	}
	quotas := make([]int, len(active))
	for i := range active {
		share := 1.0 / float64(len(active))
		if total > 0 {
			share = needs[i] / total
		}
		q := int(math.Round(share * float64(len(active)) * float64(base)))
		if q < 1 {
			q = 1
		}
		if q > 4*base {
			q = 4 * base
		}
		quotas[i] = q
	}
	if remaining >= 0 {
		// Scale the round down when its modeled cost overruns what is
		// left, so the budget drains across groups by need instead of
		// first-come-first-served.
		cost := 0.0
		perSample := make([]float64, len(active))
		for i, gi := range active {
			perSample[i] = p.Groups[gi].CostPerSample
			if st := states[gi]; st.samples > 0 {
				perSample[i] = float64(st.queries) / float64(st.samples)
			}
			cost += float64(quotas[i]) * perSample[i]
		}
		if cost > float64(remaining) {
			scale := float64(remaining) / cost
			for i := range quotas {
				if q := int(math.Floor(float64(quotas[i]) * scale)); q < quotas[i] {
					quotas[i] = q
				}
				if quotas[i] < 1 {
					quotas[i] = 1
				}
			}
		}
	}
	for i, gi := range active {
		ev.Allocs = append(ev.Allocs, GroupAlloc{Group: gi, Need: needs[i], Samples: quotas[i]})
	}
	return quotas, ev
}

// Execute runs the plan against svc: group sample streams interleaved
// at checkpoint grain, the shared budget re-allocated by variance at
// every boundary, every completed sample streamed through progress
// (which may be nil). It stops when every group converged or capped
// out, the shared budget or the service's own is exhausted, or ctx is
// canceled — cancellation is graceful and returns the partial
// BatchResult, like the Driver (an error is returned only when not
// even one sample finished, or on a non-graceful transport failure).
//
// Each group runs PlanOptions.Parallelism step workers (see
// stream.run); its samples fold into the group's one accumulator set,
// and progress is called on the goroutine that called Execute. Every
// call builds fresh estimators, so a plan may be executed repeatedly.
func (p *QueryPlan) Execute(ctx context.Context, svc Oracle, progress func(PlanProgress)) (*BatchResult, error) {
	startQ := svc.QueryCount()
	states := make([]*stream, len(p.Groups))
	for i := range states {
		grp := &p.Groups[i]
		st := newStream(newPlanEstimator(grp.Method, svc, grp.Seed), grp.Aggs, p.opts.Parallelism)
		st.converged = func() bool { return p.groupCIMet(i, st) }
		if progress != nil {
			st.onSample = p.progressSink(i, st, progress)
		}
		states[i] = st
	}

	var replans []ReplanEvent
	exhausted := false
	for round := 0; !exhausted; round++ {
		var active []int
		for i := range states {
			if !states[i].done {
				active = append(active, i)
			}
		}
		if len(active) == 0 || ctx.Err() != nil {
			break
		}
		remaining := int64(-1)
		if p.opts.MaxQueries > 0 {
			remaining = p.opts.MaxQueries - (svc.QueryCount() - startQ)
			if remaining <= 0 {
				break
			}
		}
		quotas, ev := p.allocate(round, remaining, active, states)
		if len(p.Groups) > 1 && len(replans) < maxReplanEvents {
			replans = append(replans, ev)
		}
		for i, gi := range active {
			if exhausted || ctx.Err() != nil {
				break
			}
			var err error
			if exhausted, err = states[gi].run(ctx, svc, startQ, quotas[i], &p.opts); err != nil {
				return nil, err
			}
		}
	}

	total := 0
	for i := range states {
		total += states[i].samples
	}
	if total == 0 {
		return nil, noSampleErr(ctx)
	}

	degradedTotal := 0
	for i := range states {
		degradedTotal += states[i].degraded
	}
	br := &BatchResult{
		Results:         make([]Result, len(p.Specs)),
		Groups:          make([]GroupReport, len(p.Groups)),
		Replans:         replans,
		Samples:         total,
		Queries:         svc.QueryCount() - startQ,
		DegradedSamples: degradedTotal,
	}
	for gi := range p.Groups {
		grp := &p.Groups[gi]
		st := states[gi]
		names := make([]string, len(grp.Aggs))
		for j := range grp.Aggs {
			names[j] = grp.Aggs[j].Name
		}
		br.Groups[gi] = GroupReport{
			Method:        grp.Method,
			Seed:          grp.Seed,
			Specs:         grp.Specs,
			Aggs:          names,
			Preds:         len(grp.PredHashes),
			NeedsLocation: grp.NeedsLocation,
			CostPerSample: grp.CostPerSample,
			Samples:       st.samples,
			Queries:       st.queries,
			CIMet:         st.ciMet,
		}
		for li, si := range grp.Specs {
			br.Results[si] = p.specResult(gi, li, st)
			br.Results[si].DegradedSamples = st.degraded
		}
	}
	return br, nil
}
