package core

import (
	"fmt"
)

// This file is the multi-aggregate query planner: the layer that turns
// a batch of declarative AggSpecs into grouped, fused, shared-stream
// execution. A real analytics front end submits many aggregates at
// once; answering each from its own sample stream multiplies the cost
// against the metered kNN oracle — the scarcest resource in the whole
// system — by the batch size. PlanBatch instead:
//
//   - canonicalizes and dedups predicates across specs (canon.go), so
//     each distinct selection compiles once per group and every
//     aggregate over it shares the compiled closure;
//   - fuses COUNT/SUM/AVG over the same selection into one physical
//     aggregate per (kind, attr, selection) — AVG contributes its
//     SUM/COUNT halves to the same pool — so a batch of M specs runs
//     far fewer than M physical accumulators;
//   - groups specs by compatible method, picked per group from a small
//     per-sample cost model (LR vs LNR vs NNO; LNR groups split by
//     location need, because §4.3 localization is a per-sample
//     surcharge only location-reading selections pay);
//   - allocates the shared query budget across groups by observed
//     accumulator variance, re-planned at checkpoint boundaries
//     (Execute).
//
// Execution is a chain of streaming operators over the sample trace:
// sample source (the group's Estimator and its parallel forks) → fused
// aggregators (one Accumulator per physical aggregate) → per-spec CI
// sinks (ratio finishing, progress, partials). Partial results and the
// NDJSON trace fall out of the operator graph: every completed sample
// streams one PlanProgress.

// Method names of the estimation algorithms the planner can schedule.
// They match the wire names of internal/jobs.
const (
	MethodAuto = "auto" // let the cost model choose per group
	MethodLR   = "lr"   // LR-LBS-AGG (§3)
	MethodLNR  = "lnr"  // LNR-LBS-AGG (§4)
	MethodNNO  = "nno"  // LR-LBS-NNO baseline (biased; only when forced)
)

// Per-sample query-cost model (heuristic constants, not measurements):
// enough to rank methods per group and to convert a query budget into
// sample quotas before any samples have been observed. After the first
// checkpoint Execute replaces the model with the group's observed
// queries/sample.
const (
	// costLR: one seed query plus the amortized cell-computation
	// confirmations of §3 (history reuse keeps the amortized cost low).
	costLR = 6.0
	// costLNR: the §4 bisector searches to pin the sample's cell.
	costLNR = 24.0
	// costLNRLocalize: the §4.3 localization surcharge per sample for
	// selections that read tuple locations over a rank-only interface.
	costLNRLocalize = 16.0
	// costNNO: the Dalvi et al. doubling races plus MC probes. Cheaper
	// than LNR but biased, so auto never picks it; forcing Method
	// "nno" schedules it.
	costNNO = 12.0
)

// PlanOptions configure PlanBatch: the method policy, the shared run
// bounds, and the batch's base seed.
type PlanOptions struct {
	// Method forces one algorithm for every group ("lr"|"lnr"|"nno");
	// "" or "auto" lets the cost model choose per group.
	Method string
	// RankOnly marks the oracle as rank-only (locations are not
	// returned): the cost model then schedules LNR instead of LR.
	RankOnly bool
	// Seed drives the whole batch. Group 0 uses it verbatim — a
	// single-group plan reproduces a single-estimator Run with the
	// same seed — and group g derives a splitmix64-mixed seed, exposed
	// as PlanGroup.Seed so equivalence checks can replay groups.
	Seed int64
	// MaxQueries bounds the batch's total query spend across all
	// groups (0 = unlimited). It is the budget the checkpoint
	// allocator divides.
	MaxQueries int64
	// MaxSamples bounds each group's sample count (0 = unlimited).
	MaxSamples int
	// TargetCI retires a spec's group once every member spec's 95 %
	// confidence half-width falls below rel × |estimate| (after
	// ciMinSamples samples; 0 disables).
	TargetCI float64
	// CheckpointSamples is the re-planning grain: how many samples a
	// group runs between budget re-allocations (default 64).
	CheckpointSamples int
	// Batch draws up to m samples per oracle round-trip within a group
	// (see WithBatch; only batch-capable estimators exploit it).
	Batch int
	// Parallelism is the number of concurrent step workers per group:
	// the group's estimator and its forks (≤ 1 = serial; see
	// WithParallelism).
	Parallelism int
}

// defaultCheckpointSamples is the re-plan grain when the caller does
// not choose one: small enough that a skewed batch re-balances early,
// large enough that allocation overhead is noise.
const defaultCheckpointSamples = 64

// QueryPlan is a compiled multi-aggregate batch: the validated source
// specs and the method groups that answer them. Build with PlanBatch,
// run with Execute.
type QueryPlan struct {
	// Specs are the validated source specs, in request order.
	Specs []AggSpec
	// Groups are the method groups, each answering a disjoint subset
	// of Specs from one shared sample stream.
	Groups []PlanGroup
	// Preds is the number of distinct canonical predicates across the
	// batch (the dedup observable: specs ≥ Preds means sharing).
	Preds int

	opts PlanOptions
}

// PlanGroup is one method group of a QueryPlan: the specs it answers,
// the deduped physical aggregates that answer them, and the seed of
// its sample stream.
type PlanGroup struct {
	// Method is the algorithm the cost model picked for the group.
	Method string
	// Seed seeds the group's estimator (group 0 inherits the plan
	// seed verbatim).
	Seed int64
	// NeedsLocation marks groups whose selections read tuple
	// locations (meaningful for LNR: the §4.3 surcharge).
	NeedsLocation bool
	// CostPerSample is the modeled per-sample query cost used for the
	// method choice and the first budget allocation.
	CostPerSample float64
	// Specs are the indices into QueryPlan.Specs this group answers.
	Specs []int
	// Aggs are the fused physical aggregates (deduped by kind, attr
	// and canonical selection; AVG specs contribute their SUM/COUNT
	// halves). Their Value closures are pure, so concurrent workers
	// may share them.
	Aggs []Aggregate
	// PredHashes are the structural hashes of the group's distinct
	// canonical predicates, in first-use order (observability: the CLI
	// prints them with the plan).
	PredHashes []uint64

	// entries maps each group-local spec to its physical aggregates.
	entries []planEntry
}

// planEntry maps one spec to its physical aggregate indices.
type planEntry struct {
	num int // physical index of the (only, or numerator) aggregate
	den int // physical index of the AVG denominator, or -1
}

// mixSeed derives group g's seed from the batch seed (splitmix64).
// Group 0 keeps the batch seed verbatim so single-group plans
// reproduce single-estimator Runs.
func mixSeed(seed int64, g int) int64 {
	if g == 0 {
		return seed
	}
	z := uint64(seed) + uint64(g)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// chooseMethod picks the group's algorithm and its modeled per-sample
// cost. Auto picks the cheapest unbiased method the interface
// supports: LR over location-returned interfaces, LNR (plus the
// localization surcharge for location-reading groups) over rank-only
// ones. NNO is biased and only scheduled when forced.
func chooseMethod(forced string, rankOnly, needsLoc bool) (string, float64, error) {
	cost := func(method string) float64 {
		switch method {
		case MethodLNR:
			if needsLoc {
				return costLNR + costLNRLocalize
			}
			return costLNR
		case MethodNNO:
			return costNNO
		default:
			return costLR
		}
	}
	switch forced {
	case MethodLR:
		if rankOnly {
			return "", 0, fmt.Errorf("core: method lr needs returned locations; the oracle is rank-only (use lnr)")
		}
		return MethodLR, cost(MethodLR), nil
	case MethodLNR, MethodNNO:
		return forced, cost(forced), nil
	}
	// Auto: LR when locations are returned, LNR otherwise. The modeled
	// costs encode why: costLR < costLNR, and NNO's bias keeps it out
	// of auto plans entirely.
	if rankOnly {
		return MethodLNR, cost(MethodLNR), nil
	}
	return MethodLR, cost(MethodLR), nil
}

// PlanBatch validates and compiles a batch of aggregate specs into a
// grouped, fused QueryPlan (see the file comment for what the planner
// shares). The plan embeds opts; Execute runs it against an Oracle.
func PlanBatch(specs []AggSpec, opts PlanOptions) (*QueryPlan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no aggregates given")
	}
	switch opts.Method {
	case "", MethodAuto, MethodLR, MethodLNR, MethodNNO:
	default:
		return nil, fmt.Errorf("core: unknown method %q (want auto|lr|lnr|nno)", opts.Method)
	}
	if opts.CheckpointSamples <= 0 {
		opts.CheckpointSamples = defaultCheckpointSamples
	}
	plan := &QueryPlan{Specs: make([]AggSpec, len(specs)), opts: opts}
	copy(plan.Specs, specs)

	type groupKey struct {
		method   string
		needsLoc bool
	}
	groupOf := make(map[groupKey]int)
	type physRef struct{ group, idx int }
	// Group-local dedup tables, indexed by group.
	var physOf []map[string]int
	var predOf []map[string]func(Record) bool
	allPreds := make(map[string]struct{})

	// physIndex interns one physical aggregate (kind, attr, canonical
	// selection) into group g, compiling its predicate on the group's
	// first use of it.
	physIndex := func(g int, kind, attr string, where *PredSpec) int {
		grp := &plan.Groups[g]
		key := physKey(kind, attr, where)
		if i, ok := physOf[g][key]; ok {
			return i
		}
		var cond func(Record) bool
		if where != nil {
			c := where.Canon()
			pkey := c.canonKey()
			allPreds[pkey] = struct{}{}
			var ok bool
			if cond, ok = predOf[g][pkey]; !ok {
				cond = c.compile()
				predOf[g][pkey] = cond
				grp.PredHashes = append(grp.PredHashes, c.Hash())
			}
		}
		spec := AggSpec{Kind: kind, Attr: attr, Where: where}
		agg := Aggregate{
			Name:          spec.name(),
			Value:         compileValue(kind, attr, cond),
			NeedsLocation: where != nil && where.needsLocation(),
		}
		physOf[g][key] = len(grp.Aggs)
		grp.Aggs = append(grp.Aggs, agg)
		return len(grp.Aggs) - 1
	}

	for i := range plan.Specs {
		s := &plan.Specs[i]
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("aggregate %d: %w", i, err)
		}
		needsLoc := s.Where != nil && s.Where.needsLocation()
		method, cost, err := chooseMethod(normalizeMethod(opts.Method), opts.RankOnly, needsLoc)
		if err != nil {
			return nil, fmt.Errorf("aggregate %d: %w", i, err)
		}
		// Only LNR pays per-sample for locations, so only LNR groups
		// split by location need; for LR/NNO the location is returned
		// for free and splitting would destroy sharing.
		key := groupKey{method: method}
		if method == MethodLNR {
			key.needsLoc = needsLoc
		}
		g, ok := groupOf[key]
		if !ok {
			g = len(plan.Groups)
			groupOf[key] = g
			plan.Groups = append(plan.Groups, PlanGroup{
				Method:        method,
				NeedsLocation: key.needsLoc,
				CostPerSample: cost,
			})
			physOf = append(physOf, make(map[string]int))
			predOf = append(predOf, make(map[string]func(Record) bool))
		}
		grp := &plan.Groups[g]
		var e planEntry
		if s.Kind == AggAvg {
			// AVG(attr | where) = SUM(attr | where) / COUNT(where):
			// both halves join the group's fused pool, so an explicit
			// SUM or COUNT over the same selection shares them.
			e.num = physIndex(g, AggSum, s.Attr, s.Where)
			e.den = physIndex(g, AggCount, "", s.Where)
		} else {
			e.num = physIndex(g, s.Kind, s.Attr, s.Where)
			e.den = -1
		}
		grp.Specs = append(grp.Specs, i)
		grp.entries = append(grp.entries, e)
	}
	for g := range plan.Groups {
		plan.Groups[g].Seed = mixSeed(opts.Seed, g)
	}
	plan.Preds = len(allPreds)
	return plan, nil
}

// normalizeMethod folds "" into auto.
func normalizeMethod(m string) string {
	if m == "" {
		return MethodAuto
	}
	return m
}

// Options returns the options the plan was compiled with.
func (p *QueryPlan) Options() PlanOptions { return p.opts }

// newPlanEstimator builds a group's sample source over svc.
func newPlanEstimator(method string, svc Oracle, seed int64) Estimator {
	switch method {
	case MethodLNR:
		return NewLNRAggregator(svc, LNROptions{Seed: seed})
	case MethodNNO:
		return NewNNOBaseline(svc, NNOOptions{Seed: seed})
	default: // MethodLR — PlanBatch only emits known methods
		return NewLRAggregator(svc, DefaultLROptions(seed))
	}
}
