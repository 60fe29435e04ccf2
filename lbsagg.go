// Package lbsagg is the public API of this library: aggregate
// estimation over location based services with restrictive kNN query
// interfaces, reproducing "Aggregate Estimations over Location Based
// Services" (Liu, Rahman, Thirumuruganathan, Zhang, Das; PVLDB 8(10),
// 2015).
//
// # Overview
//
// A location based service hides a database of located tuples behind
// a query interface that only answers "what are the k tuples nearest
// this point?". This library estimates SUM/COUNT/AVG aggregates over
// such hidden databases by querying that interface alone:
//
//   - NewLRAggregator — Algorithm LR-LBS-AGG, for interfaces that
//     return tuple locations (Google-Maps-like). Completely unbiased;
//     weights each sampled tuple by the exactly computed mass of its
//     top-k Voronoi cell.
//   - NewLNRAggregator — Algorithm LNR-LBS-AGG, for interfaces that
//     return only a ranked list of tuple IDs (WeChat-like). Infers
//     Voronoi cells from rank flips via binary search, with bias
//     bounded by Theorem 2 and tunable via EdgeEps; can also infer a
//     tuple's position to arbitrary precision (Localize).
//   - NewNNOBaseline — the prior-art LR-LBS-NNO estimator (Dalvi et
//     al., KDD 2011), provided as the evaluation baseline.
//
// # Estimation sessions (API v3)
//
// All three algorithms implement the Estimator interface — a source
// of i.i.d. point samples — and execute through one shared,
// context-aware run driver. A run is configured with functional
// options instead of positional limits:
//
//   - WithMaxSamples(n) / WithMaxQueries(n) — hard budget bounds;
//   - WithTargetCI(rel) — stop once the 95 % confidence half-width of
//     every aggregate falls below rel × |estimate|;
//   - WithProgress(fn) — stream a TracePoint per aggregate after every
//     completed sample;
//   - WithParallelism(n) — draw samples from n concurrent workers
//     (independent estimator forks), folded into one accumulator set;
//     against a latency-bound remote service the wall-clock time
//     shrinks almost linearly in n.
//   - WithBatch(m) — draw up to m point samples per oracle call
//     through the batch query path (see below), amortizing network
//     round-trips and budget/limiter synchronization.
//
// Every query path takes a context.Context: canceling it stops the
// run gracefully and returns the Results of the samples completed so
// far, and remote adapters cancel their in-flight HTTP requests.
//
// Runs return Results with Bessel-corrected standard errors,
// confidence intervals and full estimate-versus-cost traces.
//
// # Declarative aggregates (API v3)
//
// Aggregates are declarative specs rather than Go closures: a small
// JSON-serializable predicate AST — AttrCmp, TagEq, InRect, combined
// with And/Or/Not — plus aggregate specs built from CountSpec,
// SumSpec(attr) and AvgSpec(attr), each optionally restricted with
// WithWhere. PlanBatch (below) compiles a request's spec list once
// into the closure form the estimators execute (AVG expands into a
// SUM/COUNT pair finished through RatioOf), so the declarative layer
// costs nothing per sample:
//
//	plan, err := lbsagg.PlanBatch([]lbsagg.AggSpec{
//		lbsagg.CountSpec(),
//		lbsagg.AvgSpec("rating").WithWhere(lbsagg.TagEq("open_sunday", "yes")),
//	}, lbsagg.PlanOptions{Seed: 42, MaxQueries: 5000})
//	br, err := plan.Execute(ctx, svc, nil)   // br.Results per spec
//
// Because specs are plain data, the same aggregate request can travel
// over the wire — which is what makes estimation jobs possible.
//
// # Multi-aggregate query planner (API v4)
//
// Real analytics front ends ask many aggregates at once, and answering
// each from its own sample stream multiplies the query cost by the
// batch size. PlanBatch compiles a whole spec list into a QueryPlan —
// a streaming operator graph that shares work across the batch:
//
//   - predicates are canonicalized (and/or reordering folds away) and
//     deduped, so each distinct selection compiles once per group;
//   - COUNT/SUM/AVG over the same selection fuse into shared physical
//     aggregates (an AVG rides the same SUM and COUNT as its siblings);
//   - specs group by compatible method, chosen per group by a small
//     cost model (auto picks LR over location-returned interfaces, LNR
//     over rank-only ones; location-reading LNR groups split off so
//     only they pay the §4.3 localization surcharge);
//   - the shared query budget is re-allocated across groups at
//     checkpoint boundaries by observed accumulator variance, so the
//     noisiest aggregates drink most of what remains.
//
// Typical use:
//
//	plan, err := lbsagg.PlanBatch(specs, lbsagg.PlanOptions{
//		Seed: 42, MaxQueries: 5000, TargetCI: 0.05, Parallelism: 8,
//	})
//	br, err := plan.Execute(ctx, svc, nil)   // br.Results per spec
//
// Plans and single-estimator Runs execute through one sample loop:
// PlanOptions.Parallelism (WithParallelism for a Run) draws each
// group's samples from that many estimator forks at once.
// Under a fixed per-group seed the planned estimates are bit-identical
// to running each group's specs independently — sharing changes the
// cost, never the numbers (pinned by the equivalence suite). A batch
// of 16 aggregates over 4 selections reaches the same confidence
// target for less than a third of the independent-run query cost (see
// BENCH_planner.json).
//
// # Estimation jobs (API v3)
//
// An HTTP server (NewHTTPServer) is a full estimation service, not
// just a raw oracle: POST /v1/estimate submits a declarative job —
// method (lr | lnr | nno), per-job RNG seed, aggregate specs, run
// options — that runs server-side with its own budget scope while all
// jobs share the service's budget and cache. GET /v1/jobs/{id}
// reports status and partial results, GET /v1/jobs/{id}/trace streams
// the estimate-versus-cost trace as NDJSON, DELETE /v1/jobs/{id}
// cancels and returns the partial results of the samples completed so
// far, and GET /v1/stats exposes live query/budget/cache/job
// counters. The HTTP client drives jobs remotely (Estimate, Job,
// WaitJob, FollowJobTrace, CancelJob) and retries transient
// failures — 5xx and genuine rate-limit 429s, never a spent budget —
// with jittered exponential backoff (RetryPolicy).
//
// # Batch queries and answer caching
//
// The paper's cost model makes the kNN interface — not computation —
// the scarce resource, so the access layer spends it carefully:
//
//   - Batching. Every oracle answers multi-point batches
//     (QueryLRBatch/QueryLNRBatch): the simulator charges a batch
//     under one atomic budget reservation and one rate-limiter lock
//     round-trip, and the HTTP adapter ships a batch as one POST
//     (/v1/query/lr:batch) instead of one GET per point. Answers are
//     index-aligned with the points; when the budget dies mid-batch,
//     the covered prefix is answered (nil marks the rest) alongside
//     ErrBudgetExhausted. Each answered point still costs one query —
//     batching buys round-trips, never budget.
//
//   - Caching. NewCachedOracle layers a concurrent sharded LRU over
//     any oracle, keyed by (quantized point, k, selection). Hits
//     replay recorded answers without consuming budget or limiter
//     quota; Stats() exposes hit/miss/eviction counters for cost
//     accounting. Caching models client-side memoization of answers
//     already paid for — it does not change the simulated service
//     contract, and estimates over a cached oracle are identical to
//     uncached runs (with Quantum=0), just cheaper on workloads that
//     repeat query points. Queries carrying a functional filter only
//     use the cache when CacheOptions.TrustFilter declares the filter
//     fixed; otherwise they bypass it, so a cache shared by
//     differently filtered callers can never replay a wrong answer.
//
// # Scaling out: sharded federation
//
// One simulator (or one upstream) eventually saturates; the federation
// layer scales the oracle horizontally while keeping every estimator,
// cache, scope and job unchanged:
//
//   - PartitionDatabase splits a database into N disjoint spatial
//     shards by recursive longest-axis median splits; shard regions
//     tile the bounds and carry balanced tuple counts.
//   - NewShardedService builds the one-call composite: N in-process
//     shard services behind a ShardRouter.
//   - NewShardRouter federates arbitrary members — in-process services
//     or remote HTTP clients (the lbsserve -upstream deployment) —
//     each declared as a Shard{Querier, Region}.
//
// A ShardRouter implements Querier via two-phase scatter-gather: the
// shard owning the query point answers first, its k-th-neighbor
// distance bounds the ball a better candidate could hide in, only
// shards intersecting that ball are fanned out to, and the merged
// candidates are re-ranked by the service ordering contract
// (distance ties break on tuple ID). Federated answers are
// bit-identical to a single Service over the union database — pinned
// by property tests — so estimates, costs and seeds reproduce exactly
// across 1, 2, 4, 8, ... shards. The router owns the logical cost
// model (budget, rate limiter, QueryCount = client-visible queries);
// per-shard physical counters aggregate through its Stats(), which
// GET /v1/stats exposes as the federation section.
//
// # Live databases
//
// NewLiveDatabase wraps an immutable Database in a mutable view:
// inserts, deletes and moves apply through the Mutator interface
// (Apply) while queries keep running — readers never block, each
// query resolves one immutable snapshot, and a background rebuild
// folds accumulated changes into a fresh spatial index once the
// overlay outgrows LiveOptions.CompactThreshold. Every applied
// mutation advances the database epoch; a query bracketed by two
// equal Epoch() reads saw exactly that epoch's contents. Answers over
// a live database with no pending mutations are bit-identical to a
// Service over the same tuples, so estimates and seeds reproduce
// exactly across the immutable/live boundary.
//
// NewLiveCluster is the sharded form: N live shards behind a
// ShardRouter, with mutations routed to the shard owning the
// location (cross-shard moves re-home the tuple). The HTTP server
// exposes any Mutator as POST /v1/tuples:stream — an NDJSON stream
// of ops acked one by one with the epoch at which each became
// visible (HTTPClient.StreamTuples drives it) — and mutations
// invalidate exactly the dirtied region of an answer cache wired
// through LiveOptions.OnInvalidate.
//
// # Bring your own service
//
// The estimators run against the Oracle interface, which this library
// implements both as an in-process simulator (NewService over a
// NewDatabase) faithful to real interface constraints — top-k caps,
// maximum coverage radii, query budgets, server-side filters,
// location obfuscation and prominence ranking — and as an HTTP client
// adapter (NewHTTPClient). To target a real LBS, implement a thin
// adapter that forwards QueryLR/QueryLNR to the provider's API and
// construct the estimators over it; honor the context so runs stay
// cancellable. Adapters may additionally implement BatchOracle to
// serve WithBatch runs in one round-trip per batch.
//
// # Quick start
//
//	db := lbsagg.NewDatabase(bounds, tuples)
//	svc := lbsagg.NewService(db, lbsagg.ServiceOptions{K: 10})
//	plan, err := lbsagg.PlanBatch([]lbsagg.AggSpec{lbsagg.CountSpec()},
//		lbsagg.PlanOptions{Seed: 42, MaxQueries: 5000, Parallelism: 8})
//	br, err := plan.Execute(ctx, svc, nil)
//	res := br.Results
//
// See examples/ for complete programs and internal/experiments for
// the reproduction of every figure and table of the paper.
//
// # MIGRATION from the v1/v2 APIs
//
// v2 threads context.Context through the whole query path and moves
// run limits into options. Old → new call sites:
//
//	agg.Run(aggs, maxSamples, maxQueries)
//	  → agg.Run(ctx, aggs, lbsagg.WithMaxSamples(maxSamples),
//	        lbsagg.WithMaxQueries(maxQueries))
//	svc.QueryLR(q, filter)      → svc.QueryLR(ctx, q, filter)
//	svc.QueryLNR(q, filter)     → svc.QueryLNR(ctx, q, filter)
//	agg.Step(aggs)              → agg.Step(ctx, aggs)
//	agg.Localize(id, anchor)    → agg.Localize(ctx, id, anchor)
//	NewHTTPClient(url, sel, hc) → NewHTTPClient(ctx, url, sel, hc)
//
// v3 replaces closure-built aggregates with declarative specs. The
// closure constructors remain as thin deprecated shims that compile
// the equivalent spec:
//
//	Count()                  → CountSpec()                 (via PlanBatch)
//	SumAttr(a)               → SumSpec(a)
//	CountTag(t, v)           → CountSpec().WithWhere(TagEq(t, v))
//	CountInRect(r)           → CountSpec().WithWhere(InRect(r))
//	CountWhere(name, fn)     → CountSpec().WithWhere(pred).WithLabel(name)
//	                           for predicates expressible in the AST;
//	                           closure form stays for arbitrary Go conditions
//	RatioOf(sum, count)      → AvgSpec(a) (finished by the plan)
//
// NewHTTPClient now returns the concrete *HTTPClient (still an
// Oracle), exposing the job methods and the retry policy; and
// NewHTTPServer returns the concrete *HTTPServer (still an
// http.Handler), exposing the job manager for graceful shutdown.
//
// Custom Oracle implementations must add the ctx parameter to both
// query methods; custom estimators implement Estimator (Step, Service,
// Fork) and inherit the shared Driver.
package lbsagg

import (
	"context"
	"net/http"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/sampling"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// Geometry primitives.
type (
	// Point is a location on the Euclidean plane.
	Point = geom.Point
	// Rect is an axis-aligned bounding rectangle.
	Rect = geom.Rect
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect constructs a Rect from two opposite corners.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// Service-side types (the simulated LBS).
type (
	// Tuple is one hidden-database row.
	Tuple = lbs.Tuple
	// Database is an immutable indexed tuple collection.
	Database = lbs.Database
	// Service is a kNN query interface over a database.
	Service = lbs.Service
	// ServiceOptions configures a service view (top-k, coverage
	// radius, budget, ranking, ...).
	ServiceOptions = lbs.Options
	// Obfuscation distorts the locations a service ranks by.
	Obfuscation = lbs.Obfuscation
	// Filter is a server-side selection condition (pass-through).
	Filter = lbs.Filter
	// LRRecord is a location-returned result row.
	LRRecord = lbs.LRRecord
	// LNRRecord is a rank-only result row.
	LNRRecord = lbs.LNRRecord
)

// ErrBudgetExhausted is returned once a service's query budget is
// spent.
var ErrBudgetExhausted = lbs.ErrBudgetExhausted

// NewDatabase builds a database over tuples within bounds.
func NewDatabase(bounds Rect, tuples []Tuple) *Database {
	return lbs.NewDatabase(bounds, tuples)
}

// NewObfuscatedDatabase builds a database whose ranking locations are
// obfuscated (the WeChat model).
func NewObfuscatedDatabase(bounds Rect, tuples []Tuple, obf Obfuscation) *Database {
	return lbs.NewObfuscatedDatabase(bounds, tuples, obf)
}

// NewService creates a kNN service view over a database.
func NewService(db *Database, opts ServiceOptions) *Service {
	return lbs.NewService(db, opts)
}

// CategoryFilter matches tuples of a category; NameFilter matches a
// name (server-side selection pass-through).
func CategoryFilter(category string) Filter { return lbs.CategoryFilter(category) }

// NameFilter matches tuples with the given name.
func NameFilter(name string) Filter { return lbs.NameFilter(name) }

// Oracle is the query surface estimators run against; *Service
// implements it, and so does the HTTP client adapter.
type Oracle = core.Oracle

// BatchOracle is an Oracle with a native multi-point query path;
// *Service, *CachedOracle and the HTTP client all implement it.
type BatchOracle = core.BatchOracle

// Querier is the full service-side query surface (point + batch
// queries); both the simulator and cache wrappers satisfy it.
type Querier = lbs.Querier

// Answer-cache types (client-side memoization over any Querier).
type (
	// CachedOracle memoizes answers in a concurrent sharded LRU.
	CachedOracle = lbs.CachedOracle
	// CacheOptions configures capacity, sharding, point quantization
	// and the selection label of a CachedOracle.
	CacheOptions = lbs.CacheOptions
	// CacheStats snapshots hit/miss/eviction counters.
	CacheStats = lbs.CacheStats
)

// NewCachedOracle wraps a Querier with an answer cache: hits replay
// recorded answers without consuming budget.
func NewCachedOracle(inner Querier, opts CacheOptions) *CachedOracle {
	return lbs.NewCachedOracle(inner, opts)
}

// Federation types (horizontal scale-out; see the package overview).
type (
	// Shard is one federation member: a querier plus the region whose
	// tuples it owns.
	Shard = shard.Shard
	// ShardRouter federates shards behind the Querier interface with
	// two-phase scatter-gather; answers are bit-identical to a single
	// Service over the union database.
	ShardRouter = shard.Router
	// ShardRouterStats snapshots federation cost accounting: logical
	// vs upstream query counts and the per-shard breakdown.
	ShardRouterStats = shard.RouterStats
	// ShardStat is one member's slice of ShardRouterStats.
	ShardStat = shard.ShardStat
)

// PartitionDatabase splits a database into n disjoint spatial shard
// databases (recursive longest-axis median splits; regions tile the
// bounds, effective locations carry over verbatim).
func PartitionDatabase(db *Database, n int) []*Database { return shard.Partition(db, n) }

// NewShardedService partitions db into n in-process shard services
// behind a ShardRouter configured with the given logical options —
// drop-in for NewService(db, opts) at any shard count.
func NewShardedService(db *Database, opts ServiceOptions, n int) (*ShardRouter, error) {
	return shard.NewLocal(db, opts, n)
}

// NewShardRouter federates explicit members (in-process services or
// remote HTTPClients over disjoint upstreams). Members must answer
// distance-ranked LR queries with k of at least opts.K (×overfetch
// under prominence ranking).
func NewShardRouter(shards []Shard, opts ServiceOptions) (*ShardRouter, error) {
	return shard.NewRouter(shards, opts)
}

// Fault-tolerance types (see README "Operating under failure").
type (
	// Resilience configures the router's failure handling: per-shard
	// call deadlines, bounded retry of transient errors, hedged
	// requests to replicas, and the per-shard circuit breaker.
	Resilience = shard.Resilience
	// BreakerState is a member's circuit-breaker state (closed / open
	// / half-open), reported in ShardStat and /v1/stats.
	BreakerState = shard.BreakerState
	// PartialAnswerError annotates a usable answer drawn from a
	// partial federation (a member down or routed around): Degraded
	// counts degraded answers, Dropped lost batch positions, Missing
	// skipped members. It travels alongside records, not instead of
	// them.
	PartialAnswerError = lbs.PartialError
	// TolerantQuerier absorbs partial-answer annotations from a
	// wrapped Querier so estimation layers see clean answers while the
	// degraded counters still accumulate.
	TolerantQuerier = lbs.TolerantQuerier
	// FaultSpec configures a deterministic fault injector: transient
	// error rates, crash-recover windows, injected latency, slow-shard
	// and duplicate-delivery modes.
	FaultSpec = faults.Spec
	// FaultInjector wraps any Querier with seed-deterministic injected
	// faults; Kill/Revive flip availability mid-run.
	FaultInjector = faults.Injector
	// FaultStats snapshots an injector's fault counters.
	FaultStats = faults.Stats
)

// Circuit-breaker states.
const (
	BreakerClosed   = shard.BreakerClosed
	BreakerOpen     = shard.BreakerOpen
	BreakerHalfOpen = shard.BreakerHalfOpen
)

// Typed federation failures.
var (
	// ErrOwnerDown reports that the member owning the query point is
	// unavailable — the one failure scatter-gather cannot degrade
	// around (match with errors.Is; the concrete error also carries
	// the shard index).
	ErrOwnerDown = shard.ErrOwnerDown
	// ErrNoShards reports that every member's breaker is open.
	ErrNoShards = shard.ErrNoShards
	// ErrShardTimeout reports a member call exceeding
	// Resilience.ShardTimeout.
	ErrShardTimeout = shard.ErrShardTimeout
)

// DefaultResilience returns the production failure-handling defaults:
// 10s shard timeout, 2 retries with jittered backoff, hedging at the
// p95 latency estimate, and a 5-failure breaker with 1s cooldown.
func DefaultResilience() Resilience { return shard.DefaultResilience() }

// NewResilientShardRouter federates explicit members with the given
// failure handling; NewShardRouter is equivalent to resilience left
// zero (every mechanism off — strict bit-identical scatter-gather).
func NewResilientShardRouter(shards []Shard, opts ServiceOptions, res Resilience) (*ShardRouter, error) {
	return shard.NewRouterWithResilience(shards, opts, res)
}

// NewShardedServiceWrapped partitions db into n in-process shard
// services, passing each member querier through wrap (index, querier)
// before federating — the hook chaos tests use to install fault
// injectors per member. A nil wrap federates the bare services.
func NewShardedServiceWrapped(db *Database, opts ServiceOptions, n int, res Resilience,
	wrap func(i int, q Querier) Querier) (*ShardRouter, error) {
	return shard.FromPartsWrapped(shard.Partition(db, n), opts, res, wrap)
}

// NewFaultInjector wraps inner with deterministic injected faults per
// spec. The same seed replays the same fault schedule.
func NewFaultInjector(inner Querier, spec FaultSpec) *FaultInjector {
	return faults.New(inner, spec)
}

// ParseFaultSpec parses the comma-separated key=value fault-spec
// syntax of the lbsserve -fault-spec flag (e.g.
// "seed=7,transient=0.05,latency=2ms,sigma=0.6").
func ParseFaultSpec(s string) (FaultSpec, error) { return faults.ParseSpec(s) }

// NewTolerantQuerier wraps inner so partial-answer annotations are
// absorbed (counted, not surfaced) — what the job manager installs
// over a resilient federation.
func NewTolerantQuerier(inner Querier) *TolerantQuerier {
	return lbs.NewTolerantQuerier(inner)
}

// IsPartialAnswer reports whether err is (or wraps) a partial-answer
// annotation, returning it when so. The records returned alongside
// the error are valid — degraded, not wrong.
func IsPartialAnswer(err error) (*PartialAnswerError, bool) { return lbs.AsPartial(err) }

// Live-database types (mutable backends; see the package overview).
type (
	// LiveDatabase is a mutable database view: an immutable base plus
	// a mutation overlay, queried through lock-free snapshots.
	LiveDatabase = live.Database
	// LiveCluster is a sharded live database behind a ShardRouter.
	LiveCluster = live.Cluster
	// LiveOptions configures compaction and cache invalidation.
	LiveOptions = live.Options
	// LiveOp is one mutation (insert, delete or move).
	LiveOp = live.Op
	// LiveOpKind discriminates LiveOp.
	LiveOpKind = live.OpKind
	// LiveResult is the per-op outcome of a Mutator.Apply call: the
	// epoch after the op, or the rejection error.
	LiveResult = live.Result
	// LiveStats snapshots a live database's mutation counters.
	LiveStats = live.Stats
	// Mutator is the mutation surface (LiveDatabase, LiveCluster, or
	// a custom implementation behind the HTTP ingest endpoint).
	Mutator = live.Mutator
)

// Mutation op kinds.
const (
	LiveOpInsert = live.OpInsert
	LiveOpDelete = live.OpDelete
	LiveOpMove   = live.OpMove
)

// Mutation rejection errors.
var (
	// ErrLiveUnknownID rejects a delete/move of an ID not in the
	// database.
	ErrLiveUnknownID = live.ErrUnknownID
	// ErrLiveDuplicateID rejects an insert of an ID already present.
	ErrLiveDuplicateID = live.ErrDuplicateID
	// ErrLiveOutOfRegion rejects an insert/move landing outside every
	// shard region (or the database bounds).
	ErrLiveOutOfRegion = live.ErrOutOfRegion
)

// NewLiveDatabase wraps an immutable base database in a mutable view
// with the given service options. Queries are served from immutable
// snapshots and never block behind mutations.
func NewLiveDatabase(base *Database, opts ServiceOptions, lopts LiveOptions) (*LiveDatabase, error) {
	return live.New(base, opts, lopts)
}

// NewLiveCluster partitions base into n live shards behind a
// ShardRouter; queries stay bit-identical to a single live database
// while mutations route to the owning shard.
func NewLiveCluster(base *Database, opts ServiceOptions, n int, lopts LiveOptions) (*LiveCluster, error) {
	return live.NewCluster(base, opts, n, lopts)
}

// HTTPSelection is the declarative server-side filter of the HTTP
// wire protocol.
type HTTPSelection = httpapi.Selection

// HTTP service types (estimation as a service).
type (
	// HTTPServer serves the full estimation service: raw oracle
	// endpoints, batch queries, estimation jobs and live stats.
	HTTPServer = httpapi.Server
	// HTTPServerOptions configures the optional server subsystems.
	HTTPServerOptions = httpapi.ServerOptions
	// HTTPClient is the remote Oracle and estimation-job client.
	HTTPClient = httpapi.Client
	// RetryPolicy bounds the HTTP client's transient-failure retries.
	RetryPolicy = httpapi.RetryPolicy
)

// NewHTTPServer exposes a service backend over HTTP (see cmd/lbsserve
// for a runnable server). Any Querier serves: the raw simulator or a
// CachedOracle gateway in front of it. The returned server is an
// http.Handler; its Jobs() manager runs /v1/estimate jobs.
func NewHTTPServer(svc Querier) *HTTPServer { return httpapi.NewServer(svc) }

// NewHTTPServerWith is NewHTTPServer with explicit options (job
// retention cap, default per-job query budget).
func NewHTTPServerWith(svc Querier, opts HTTPServerOptions) *HTTPServer {
	return httpapi.NewServerWith(svc, opts)
}

// NewHTTPClient connects to an HTTP-exposed service and returns a
// client the estimators can run against (it implements Oracle and
// BatchOracle) — the template for adapting real provider APIs — and
// that drives server-side estimation jobs (Estimate, Job, WaitJob,
// FollowJobTrace, CancelJob). The construction-time metadata probe
// honors ctx; queries issued later carry the per-run context.
func NewHTTPClient(ctx context.Context, baseURL string, sel HTTPSelection, hc *http.Client) (*HTTPClient, error) {
	return httpapi.NewClient(ctx, baseURL, sel, hc)
}

// Estimation-job types (the declarative request/response surface of
// POST /v1/estimate; see the package overview).
type (
	// JobSpec is a declarative estimation request: method, seed,
	// aggregate specs and run options.
	JobSpec = jobs.Spec
	// JobRunOptions are the wire form of the run options.
	JobRunOptions = jobs.RunOptions
	// JobView is a snapshot of a job: state, partial or final results.
	JobView = jobs.View
	// JobState is a job lifecycle phase (running, done, canceled,
	// failed).
	JobState = jobs.State
	// JobResult is the wire form of one aggregate's result.
	JobResult = jobs.ResultView
	// JobTraceEvent is one NDJSON line of a job's trace stream.
	JobTraceEvent = jobs.TraceEvent
	// JobManager creates, observes and cancels server-side jobs.
	JobManager = jobs.Manager
)

// Job method and state names. JobMethodAuto lets the server-side
// planner's cost model choose per method group; the same names
// configure PlanOptions.Method for in-process batches.
const (
	JobMethodAuto = jobs.MethodAuto
	JobMethodLR   = jobs.MethodLR
	JobMethodLNR  = jobs.MethodLNR
	JobMethodNNO  = jobs.MethodNNO

	JobRunning  = jobs.StateRunning
	JobDone     = jobs.StateDone
	JobCanceled = jobs.StateCanceled
	JobFailed   = jobs.StateFailed
)

// Declarative aggregate specs (API v3).
type (
	// PredSpec is a JSON-serializable predicate AST node.
	PredSpec = core.PredSpec
	// AggSpec is a declarative COUNT/SUM/AVG aggregate.
	AggSpec = core.AggSpec
	// RectSpec is the wire form of a rectangle.
	RectSpec = core.RectSpec
)

// Predicate constructors.
var (
	// AttrCmp compares a numeric attribute against a constant.
	AttrCmp = core.AttrCmp
	// TagEq tests a categorical attribute for equality.
	TagEq = core.TagEq
	// InRect tests the tuple location against a rectangle.
	InRect = core.InRect
	// And is the conjunction of its arguments.
	And = core.And
	// Or is the disjunction of its arguments.
	Or = core.Or
	// Not negates its argument.
	Not = core.Not
)

// Comparison operators for AttrCmp.
const (
	CmpLT = core.CmpLT
	CmpLE = core.CmpLE
	CmpGT = core.CmpGT
	CmpGE = core.CmpGE
	CmpEQ = core.CmpEQ
	CmpNE = core.CmpNE
)

// Aggregate-spec constructors.
var (
	// CountSpec builds COUNT(*).
	CountSpec = core.CountSpec
	// SumSpec builds SUM(attr).
	SumSpec = core.SumSpec
	// AvgSpec builds AVG(attr) (a SUM/COUNT pair under the hood).
	AvgSpec = core.AvgSpec
)

// Multi-aggregate query planner types (API v4; see the package
// overview).
type (
	// PlanOptions configure PlanBatch: method policy, batch seed,
	// shared run bounds and the checkpoint re-plan grain.
	PlanOptions = core.PlanOptions
	// QueryPlan is a compiled multi-aggregate batch: method groups of
	// fused physical aggregates over deduped predicates. Run it with
	// Execute.
	QueryPlan = core.QueryPlan
	// PlanGroup is one method group of a QueryPlan.
	PlanGroup = core.PlanGroup
	// PlanProgress is the per-sample streaming event of Execute.
	PlanProgress = core.PlanProgress
	// BatchResult is the outcome of executing a QueryPlan: one Result
	// per spec plus per-group accounts and the re-plan history.
	BatchResult = core.BatchResult
	// GroupReport is the post-run account of one plan group.
	GroupReport = core.GroupReport
	// ReplanEvent records one checkpoint-boundary budget re-allocation.
	ReplanEvent = core.ReplanEvent
	// GroupAlloc is one group's slice of a ReplanEvent.
	GroupAlloc = core.GroupAlloc
)

// PlanBatch compiles a batch of aggregate specs into a grouped, fused
// QueryPlan: predicates dedup across specs, same-selection aggregates
// share physical accumulators, and Execute re-allocates the shared
// query budget across method groups by observed variance. Estimates
// are bit-identical to independent per-group runs at equal seeds —
// batching changes the cost, never the numbers.
var PlanBatch = core.PlanBatch

// Estimator types.
type (
	// Aggregate is the compiled (closure) form of an aggregate; build
	// it from a COUNT/SUM AggSpec via AggSpec.Compile, or let PlanBatch
	// compile a whole request.
	Aggregate = core.Aggregate
	// Record is the estimator-visible view of a returned tuple.
	Record = core.Record
	// Result is an estimation outcome with error bars and trace.
	Result = core.Result
	// TracePoint is one point of the estimate-versus-cost trace.
	TracePoint = core.TracePoint
	// LROptions configures LR-LBS-AGG.
	LROptions = core.LROptions
	// LNROptions configures LNR-LBS-AGG.
	LNROptions = core.LNROptions
	// NNOOptions configures the LR-LBS-NNO baseline.
	NNOOptions = core.NNOOptions
	// LRAggregator is Algorithm LR-LBS-AGG.
	LRAggregator = core.LRAggregator
	// LNRAggregator is Algorithm LNR-LBS-AGG.
	LNRAggregator = core.LNRAggregator
	// NNOBaseline is Algorithm LR-LBS-NNO.
	NNOBaseline = core.NNOBaseline
	// Estimator is the sample-source interface all three algorithms
	// implement; custom algorithms that implement it plug into the
	// same run driver.
	Estimator = core.Estimator
	// Driver executes any Estimator with budgets, traces, early
	// stopping and optional parallelism.
	Driver = core.Driver
	// RunOption configures an estimation run.
	RunOption = core.RunOption
)

// Run options for estimation sessions (see the package overview).
var (
	// WithMaxSamples stops a run after n completed samples.
	WithMaxSamples = core.WithMaxSamples
	// WithMaxQueries stops a run after n service queries.
	WithMaxQueries = core.WithMaxQueries
	// WithTargetCI stops a run at a relative 95 % CI half-width.
	WithTargetCI = core.WithTargetCI
	// WithProgress streams per-sample trace points to a callback.
	WithProgress = core.WithProgress
	// WithParallelism samples from n concurrent estimator forks.
	WithParallelism = core.WithParallelism
	// WithBatch draws up to m samples per oracle round-trip.
	WithBatch = core.WithBatch
)

// The HTTP client adapter serves the batch path too, so WithBatch
// collapses m remote queries into one POST.
var _ BatchOracle = (*httpapi.Client)(nil)

// NewLRAggregator builds the unbiased location-returned estimator
// over any Oracle (the in-process simulator or a remote adapter).
func NewLRAggregator(svc Oracle, opts LROptions) *LRAggregator {
	return core.NewLRAggregator(svc, opts)
}

// DefaultLROptions enables all four error-reduction devices of §3.2.
func DefaultLROptions(seed int64) LROptions { return core.DefaultLROptions(seed) }

// NewLNRAggregator builds the rank-only estimator.
func NewLNRAggregator(svc Oracle, opts LNROptions) *LNRAggregator {
	return core.NewLNRAggregator(svc, opts)
}

// NewNNOBaseline builds the prior-art baseline estimator.
func NewNNOBaseline(svc Oracle, opts NNOOptions) *NNOBaseline {
	return core.NewNNOBaseline(svc, opts)
}

// Closure-form aggregate constructors.
//
// Deprecated: prefer the declarative spec constructors (CountSpec,
// SumSpec, AvgSpec with WithWhere) compiled through PlanBatch —
// specs serialize to JSON and can be submitted as remote jobs. The
// closure forms remain for selection conditions that need arbitrary
// Go code.
var (
	// Count returns the COUNT(*) aggregate.
	Count = core.Count
	// CountWhere returns COUNT with a post-processed condition.
	CountWhere = core.CountWhere
	// CountTag returns COUNT of tuples whose tag matches.
	CountTag = core.CountTag
	// CountInRect returns COUNT of tuples inside a rectangle
	// (location-based condition; triggers localization over LNR).
	CountInRect = core.CountInRect
	// SumAttr returns SUM(attr).
	SumAttr = core.SumAttr
	// SumAttrWhere returns SUM(attr) with a condition.
	SumAttrWhere = core.SumAttrWhere
	// RatioOf combines two results into an AVG-style ratio.
	RatioOf = core.RatioOf
)

// Sampling distributions (§5.2 external knowledge).
type (
	// Sampler is a query-location distribution.
	Sampler = sampling.Sampler
	// UniformSampler samples uniformly over a rectangle.
	UniformSampler = sampling.Uniform
	// GridSampler is a piecewise-constant weighted density.
	GridSampler = sampling.Grid
)

// NewUniformSampler returns the uniform distribution over rect.
func NewUniformSampler(rect Rect) *UniformSampler { return sampling.NewUniform(rect) }

// NewGridSampler builds a weighted grid sampler from row-major cell
// weights.
func NewGridSampler(rect Rect, w, h int, weights []float64) *GridSampler {
	return sampling.NewGrid(rect, w, h, weights)
}

// GridFromPoints estimates a density grid from observed locations
// (the census substitute).
func GridFromPoints(rect Rect, w, h int, pts []Point, alpha float64) *GridSampler {
	return sampling.GridFromPoints(rect, w, h, pts, alpha)
}

// Workload scenarios (synthetic stand-ins for the paper's datasets).
type Scenario = workload.Scenario

// Named scenario constructors.
var (
	// USASchools generates the schools-with-enrollment scenario.
	USASchools = workload.USASchools
	// USARestaurants generates the restaurants-with-ratings scenario.
	USARestaurants = workload.USARestaurants
	// StarbucksUS generates the Starbucks-among-POIs scenario.
	StarbucksUS = workload.StarbucksUS
	// WeChatChina generates the obfuscated social-network scenario.
	WeChatChina = workload.WeChatChina
	// WeiboChina generates the rank-only social-network scenario.
	WeiboChina = workload.WeiboChina
)

// Durable storage (internal/store): the paged .lbspack database
// format, WAL-backed live overlays, and warm restarts.
type (
	// Store is one durable data directory (pack + WAL + jobs + cache).
	Store = store.Store
	// StoreOptions configures page size, buffer-pool budget and WAL
	// syncing.
	StoreOptions = store.Options
	// StoreStats is the engine's counter snapshot (the /v1/stats
	// "store" section).
	StoreStats = store.Stats
	// StoreRecovery describes what opening a durable live database
	// found (warm/cold, recovered epoch, replayed WAL frames).
	StoreRecovery = store.Recovery
	// StoreCorruptError is the typed failure of every storage
	// integrity check (bad magic, checksum mismatch, truncated page).
	StoreCorruptError = store.CorruptError
	// TupleSource is a scannable tuple supplier a Database can
	// materialize from (implemented by the store's paged packs).
	TupleSource = lbs.TupleSource
)

// OpenStore opens (creating if needed) a durable data directory.
func OpenStore(dir string, opts StoreOptions) (*Store, error) { return store.Open(dir, opts) }

// WritePack writes db as a paged .lbspack file at path (epoch is
// recorded in the header; pageSize 0 means the default).
func WritePack(path string, db *Database, epoch uint64, pageSize int) error {
	return store.WritePack(path, db, epoch, pageSize, nil)
}

// OpenPackedDatabase opens a .lbspack and materializes the database
// it holds, returning the recorded epoch (poolPages 0 means the
// default buffer-pool budget).
func OpenPackedDatabase(path string, poolPages int) (*Database, uint64, error) {
	return store.OpenDatabase(path, poolPages, nil)
}

// NewDatabaseFromStore materializes a Database from any TupleSource.
var NewDatabaseFromStore = lbs.NewDatabaseFromStore
