// Package jobs turns estimation runs into first-class server
// resources: a Manager creates, runs, observes and cancels estimation
// jobs over a shared service backend. Each job compiles a declarative
// request — method, per-job RNG seed, core.AggSpec aggregates, run
// options — through the multi-aggregate query planner (core.PlanBatch:
// shared sample streams, fused operators, variance-driven budget
// allocation across method groups) and wires it to a job-scoped budget
// querier (lbs.ScopedQuerier), so concurrent jobs share the service's
// budget and cache while each keeps its own cost meter and cap. The
// HTTP layer of internal/httpapi exposes the manager as
// POST /v1/estimate, GET/DELETE /v1/jobs/{id} and the NDJSON trace
// stream GET /v1/jobs/{id}/trace.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/lbs"
)

// ErrTableFull is returned by Manager.Create when every retained job
// is still running and the table cannot take another — a transient
// server-capacity condition, not a malformed request. The HTTP layer
// maps it to 429 with code=jobs_exhausted, which retry policies treat
// as retryable (capacity clears when a job settles) in contrast to the
// permanent budget_exhausted 429.
var ErrTableFull = errors.New("jobs: job table full")

// Method names of the estimation algorithms a job can run.
const (
	MethodAuto = "auto" // let the planner's cost model choose per group
	MethodLR   = "lr"   // LR-LBS-AGG (§3), all error-reduction devices on
	MethodLNR  = "lnr"  // LNR-LBS-AGG (§4)
	MethodNNO  = "nno"  // LR-LBS-NNO baseline (Dalvi et al., KDD 2011)
)

// State is a job's lifecycle phase.
type State string

const (
	// StateRunning: the estimation goroutine is drawing samples.
	StateRunning State = "running"
	// StateDone: the run finished by one of its stopping rules.
	StateDone State = "done"
	// StateCanceled: the run was canceled; Results hold the samples
	// completed before the cancel (partial results).
	StateCanceled State = "canceled"
	// StateFailed: the run died on an error before completing a single
	// sample, or on a non-graceful transport error.
	StateFailed State = "failed"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool { return s != StateRunning }

// RunOptions are the wire-expressible run bounds of one job — the
// declarative form of the Driver's functional options.
type RunOptions struct {
	// MaxSamples stops the run after n completed samples (0 = unlimited).
	MaxSamples int `json:"max_samples,omitempty"`
	// MaxQueries bounds the job's own query spend: it is both a hard
	// cap on the job's budget scope and the Driver's between-samples
	// stopping rule (0 = unlimited).
	MaxQueries int64 `json:"max_queries,omitempty"`
	// TargetCI stops the run once every aggregate's 95 % confidence
	// half-width falls below rel × |estimate| (0 disables). The rule
	// is per requested aggregate — AVG specs converge on their
	// delta-method ratio CI — and retires each method group
	// independently.
	TargetCI float64 `json:"target_ci,omitempty"`
	// Parallelism draws each method group's samples from n concurrent
	// estimator forks.
	Parallelism int `json:"parallelism,omitempty"`
	// Batch draws up to m samples per oracle round-trip.
	Batch int `json:"batch,omitempty"`
}

// Spec is a declarative estimation request: everything needed to run
// the paper's algorithms server-side, expressible as JSON.
type Spec struct {
	// Method selects the algorithm: auto | lr | lnr | nno. "auto" lets
	// the query planner's cost model choose per method group (over this
	// server's location-returned backend it resolves to lr).
	Method string `json:"method"`
	// Seed drives the job's randomness; the same seed, spec and budget
	// reproduce the same estimates.
	Seed int64 `json:"seed"`
	// Aggregates are the declarative aggregate specs to estimate.
	Aggregates []core.AggSpec `json:"aggregates"`
	// Metric names the distance metric this spec was compiled for
	// (euclidean | haversine). Empty accepts whatever the server runs;
	// set, the server (and the HTTP client, before spending a network
	// round-trip) refuses to run the job against a backend ranking in a
	// different metric — the estimates would silently mean something
	// else.
	Metric string `json:"metric,omitempty"`
	// Options bound the run.
	Options RunOptions `json:"options"`
}

// maxParallelism and maxBatch bound the per-job resources one request
// can demand of the server.
const (
	maxParallelism = 64
	maxBatch       = 4096
)

// Validate rejects malformed specs (before any compilation).
func (s *Spec) Validate() error {
	switch s.Method {
	case MethodAuto, MethodLR, MethodLNR, MethodNNO:
	case "":
		return fmt.Errorf("jobs: missing method (want auto|lr|lnr|nno)")
	default:
		return fmt.Errorf("jobs: unknown method %q (want auto|lr|lnr|nno)", s.Method)
	}
	if len(s.Aggregates) == 0 {
		return fmt.Errorf("jobs: no aggregates given")
	}
	if s.Metric != "" {
		if _, err := geo.ParseMetric(s.Metric); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	o := s.Options
	if o.MaxSamples < 0 || o.MaxQueries < 0 || o.TargetCI < 0 {
		return fmt.Errorf("jobs: negative run option")
	}
	if o.Parallelism < 0 || o.Parallelism > maxParallelism {
		return fmt.Errorf("jobs: parallelism %d out of range [0,%d]", o.Parallelism, maxParallelism)
	}
	if o.Batch < 0 || o.Batch > maxBatch {
		return fmt.Errorf("jobs: batch %d out of range [0,%d]", o.Batch, maxBatch)
	}
	return nil
}

// JSONFloat marshals like a float64 but encodes NaN/±Inf as null, so
// job views with undefined estimates (e.g. AVG over a zero count)
// remain valid JSON.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// UnmarshalJSON implements json.Unmarshaler; null decodes to NaN.
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = JSONFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// ResultView is the wire form of one aggregate's estimation result.
type ResultView struct {
	Name     string    `json:"name"`
	Estimate JSONFloat `json:"estimate"`
	StdErr   JSONFloat `json:"std_err"`
	CI95     JSONFloat `json:"ci95"`
	Samples  int       `json:"samples"`
	Queries  int64     `json:"queries"`
	// DegradedSamples counts samples drawn while the backend answered
	// degraded (partial federation); omitted for healthy runs.
	DegradedSamples int `json:"degraded_samples,omitempty"`
}

// resultViewOf converts a core.Result (dropping the trace: the trace
// endpoint streams it instead).
func resultViewOf(r core.Result) ResultView {
	return ResultView{
		Name:            r.Name,
		Estimate:        JSONFloat(r.Estimate),
		StdErr:          JSONFloat(r.StdErr),
		CI95:            JSONFloat(r.CI95),
		Samples:         r.Samples,
		Queries:         r.Queries,
		DegradedSamples: r.DegradedSamples,
	}
}

// TraceEvent is one NDJSON line of a job's trace stream: the running
// estimate of one physical aggregate after one completed sample (AVG
// specs stream their SUM and COUNT components).
type TraceEvent struct {
	Agg      string    `json:"agg"`
	Queries  int64     `json:"queries"`
	Samples  int       `json:"samples"`
	Estimate JSONFloat `json:"estimate"`
	// Degraded marks samples drawn from a partially-available backend.
	Degraded bool `json:"degraded,omitempty"`
}

// PlanGroupView is the wire form of one method group of a planned
// job: which specs it answers, with which algorithm and seed, and its
// live sample/query account.
type PlanGroupView struct {
	Method string `json:"method"`
	Seed   int64  `json:"seed"`
	// Specs are indices into the request's aggregates list.
	Specs []int `json:"specs"`
	// Aggs names the fused physical aggregates the group runs.
	Aggs []string `json:"aggs"`
	// Preds is the group's count of distinct canonical predicates.
	Preds         int     `json:"preds"`
	NeedsLocation bool    `json:"needs_location,omitempty"`
	CostPerSample float64 `json:"cost_per_sample"`
	Samples       int     `json:"samples"`
	Queries       int64   `json:"queries"`
	CIMet         bool    `json:"ci_met,omitempty"`
}

// PlanView is the wire form of a job's compiled query plan. Purely
// additive to the job view, so pre-planner clients keep decoding.
type PlanView struct {
	// Preds is the number of distinct canonical predicates across the
	// whole batch (requested aggregates ≥ Preds means sharing).
	Preds  int             `json:"preds"`
	Groups []PlanGroupView `json:"groups"`
	// Replans counts the checkpoint-boundary budget re-allocations
	// (recorded once the job settles; multi-group plans only).
	Replans int `json:"replans,omitempty"`
}

// View is a JSON-marshalable snapshot of a job.
type View struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Error   string `json:"error,omitempty"`
	Method  string `json:"method"`
	Seed    int64  `json:"seed"`
	Samples int    `json:"samples"`
	// Queries is the job-scoped query spend so far.
	Queries int64 `json:"queries"`
	// DegradedSamples counts samples drawn while the backend answered
	// degraded (a federation shard down or skipped); DegradedQueries is
	// the underlying count of partially-answered queries. Both 0 — and
	// omitted — for healthy runs.
	DegradedSamples int   `json:"degraded_samples,omitempty"`
	DegradedQueries int64 `json:"degraded_queries,omitempty"`
	// TraceLen is the number of trace events recorded so far.
	TraceLen int `json:"trace_len"`
	// Results are final when State is done, the latest partials while
	// running or canceled mid-run: one entry per requested aggregate
	// (its per-aggregate status: AVG specs report their finished ratio,
	// Samples/Queries the owning group's account).
	Results []ResultView `json:"results,omitempty"`
	// Plan describes the compiled multi-aggregate plan (absent on
	// recovered jobs stored before plans were reported).
	Plan *PlanView `json:"plan,omitempty"`
	// Resumed marks a job recovered from a durable store and re-run
	// after a restart (same ID, seed and budget as the original
	// submission, so the final estimate is the one the lost run would
	// have produced).
	Resumed    bool       `json:"resumed,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// MaxJobs caps how many jobs (running + finished) the manager
	// retains; creating past the cap evicts the oldest finished job,
	// and fails when every retained job is still running. Default 1024.
	MaxJobs int
	// DefaultMaxQueries is applied to jobs that set no MaxQueries of
	// their own (0 = no default, jobs run until the service refuses).
	DefaultMaxQueries int64
	// Store, when set, makes jobs durable: specs persist at creation,
	// views checkpoint every CheckpointEvery samples and at settle, and
	// Recover reloads the table after a restart (finished jobs keep
	// their results; interrupted jobs re-run deterministically).
	Store Store
	// CheckpointEvery is the sample interval between durable view
	// checkpoints of a running job (default 256 when a Store is set).
	CheckpointEvery int
}

// Manager owns the job table and the shared backend every job queries
// through. It is safe for concurrent use.
type Manager struct {
	backend lbs.Querier
	opts    ManagerOptions

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // creation order, for eviction
	seq   int64
}

// NewManager creates a manager over backend (the raw simulator or a
// cache gateway in front of it).
func NewManager(backend lbs.Querier, opts ManagerOptions) *Manager {
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1024
	}
	if opts.Store != nil && opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 256
	}
	return &Manager{
		backend: backend,
		opts:    opts,
		jobs:    make(map[string]*Job),
	}
}

// Job is one estimation run: its spec, lifecycle state, partial or
// final results, and the trace stream.
type Job struct {
	ID   string
	Spec Spec

	plan   *core.QueryPlan
	scoped *lbs.ScopedQuerier
	// tol absorbs partial-federation annotations under the scope so
	// estimators see clean answers; its counters feed the job's
	// degraded accounting.
	tol    *lbs.TolerantQuerier
	cancel context.CancelFunc
	done   chan struct{}

	// durability (nil/zero on an ephemeral manager).
	persist   Store
	ckptEvery int
	resumed   bool
	saves     sync.WaitGroup // in-flight async checkpoint writes

	mu       sync.Mutex
	state    State
	err      error
	lastCkpt int           // samples at the last durable checkpoint
	frozen   *View         // recovered finished job: the stored view, verbatim
	results  []core.Result // finished: per requested aggregate
	// run state, fed by onPlanProgress.
	planPartial []core.Result     // per requested aggregate
	planStats   []planGroupStat   // per method group, live
	planDone    *core.BatchResult // final batch account
	// trace is a bounded window of the newest events; traceBase is the
	// absolute index of trace[0], so followers address events by
	// absolute position even after old ones are trimmed.
	trace      []TraceEvent
	traceBase  int
	traceWake  chan struct{} // closed+replaced on every trace append / finish
	degraded   int           // samples completed while the backend answered degraded
	createdAt  time.Time
	finishedAt time.Time
}

// planGroupStat is one method group's live sample/query account.
type planGroupStat struct {
	Samples int
	Queries int64
}

// maxTraceEvents bounds the per-job trace memory: a job is a server
// resource an unauthenticated client can create, so an effectively
// unbounded run (huge max_samples against an unlimited service) must
// not grow its trace without limit. When the window is full the oldest
// events are trimmed; late followers then start at the earliest
// retained event instead of the job's first sample.
const maxTraceEvents = 1 << 14

// Create validates and compiles spec, registers a new job and starts
// its estimation goroutine. The job runs until a stopping rule
// triggers or Cancel is called.
func (m *Manager) Create(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Options.MaxQueries == 0 && m.opts.DefaultMaxQueries > 0 {
		spec.Options.MaxQueries = m.opts.DefaultMaxQueries
	}
	return m.start(spec, "", false)
}

// start compiles a validated spec and launches its job. id is empty
// for fresh submissions (the manager allocates the next "job-<seq>");
// recovery passes the original ID back in so clients polling a
// pre-restart job find it again.
func (m *Manager) start(spec Spec, id string, resumed bool) (*Job, error) {
	// Every job runs through the multi-aggregate query planner:
	// predicates dedup across the batch, same-selection aggregates fuse,
	// and the job's budget is re-allocated across method groups by
	// observed variance.
	plan, err := core.PlanBatch(spec.Aggregates, core.PlanOptions{
		Method:      spec.Method,
		Seed:        spec.Seed,
		MaxQueries:  spec.Options.MaxQueries,
		MaxSamples:  spec.Options.MaxSamples,
		TargetCI:    spec.Options.TargetCI,
		Batch:       spec.Options.Batch,
		Parallelism: spec.Options.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}

	m.mu.Lock()
	if len(m.jobs) >= m.opts.MaxJobs && !m.evictOldestFinishedLocked() {
		n := len(m.jobs)
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d running jobs)", ErrTableFull, n)
	}
	if id == "" {
		m.seq++
		id = "job-" + strconv.FormatInt(m.seq, 10)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Scope over tolerance: the scope meters logical queries (degraded
	// answers included — they are answers) while the tolerant layer
	// strips partial annotations before the estimators see them.
	tol := lbs.NewTolerantQuerier(m.backend)
	j := &Job{
		ID:        id,
		Spec:      spec,
		plan:      plan,
		scoped:    lbs.NewScopedQuerier(tol, spec.Options.MaxQueries),
		tol:       tol,
		cancel:    cancel,
		done:      make(chan struct{}),
		persist:   m.opts.Store,
		ckptEvery: m.opts.CheckpointEvery,
		resumed:   resumed,
		state:     StateRunning,
		traceWake: make(chan struct{}),
		createdAt: time.Now(),
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()

	if j.persist != nil {
		// The spec is durable before the run starts: a crash between
		// submission and the first checkpoint still recovers the job.
		_ = j.persist.Save(j.storedView())
	}
	go j.run(ctx)
	return j, nil
}

// evictOldestFinishedLocked drops the oldest finished job to make room.
func (m *Manager) evictOldestFinishedLocked() bool {
	for i, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		finished := j.state.Finished()
		j.mu.Unlock()
		if finished {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			if m.opts.Store != nil {
				// Evicted means forgotten: recovery must not resurrect it.
				_ = m.opts.Store.Delete(id)
			}
			return true
		}
	}
	return false
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a running job; it is a no-op on
// finished jobs. Use Job.Wait to observe the final (partial) results.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.cancel()
	return j, true
}

// CancelAll cancels every running job and waits for them to settle,
// bounded by ctx — the manager half of a graceful server shutdown.
func (m *Manager) CancelAll(ctx context.Context) {
	m.mu.Lock()
	all := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	m.mu.Unlock()
	for _, j := range all {
		j.cancel()
	}
	for _, j := range all {
		if ctx.Err() != nil {
			return
		}
		_ = j.Wait(ctx)
	}
}

// Counts returns how many retained jobs are in each state.
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[State]int, 4)
	for _, j := range m.jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

// run executes the job's QueryPlan and settles the job.
func (j *Job) run(ctx context.Context) {
	defer close(j.done)
	defer j.persistSettle() // runs after the settle below, before done closes
	br, err := j.plan.Execute(ctx, j.scoped, j.onPlanProgress)

	j.mu.Lock()
	defer func() {
		j.finishedAt = time.Now()
		j.wakeLocked()
		j.mu.Unlock()
	}()
	if br != nil {
		j.results = br.Results
		j.planDone = br
	}
	switch {
	case ctx.Err() != nil:
		// Canceled: Execute returned the completed samples as partials
		// (err != nil only when not even one finished).
		j.state = StateCanceled
		j.err = err
	case err != nil:
		j.state = StateFailed
		j.err = err
	default:
		j.state = StateDone
	}
}

// onPlanProgress is Execute's per-sample callback: one trace event per
// fused physical aggregate of the sampled group,
// plus the group's finished per-spec partials. It runs on the job's
// estimation goroutine.
func (j *Job) onPlanProgress(pp core.PlanProgress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.planPartial == nil {
		j.planPartial = make([]core.Result, len(j.plan.Specs))
		for i := range j.planPartial {
			j.planPartial[i] = core.Result{Name: j.plan.Specs[i].Name()}
		}
		j.planStats = make([]planGroupStat, len(j.plan.Groups))
	}
	grp := &j.plan.Groups[pp.Group]
	if pp.Degraded {
		j.degraded++
	}
	for i, tp := range pp.Points {
		j.trace = append(j.trace, TraceEvent{
			Agg:      grp.Aggs[i].Name,
			Queries:  tp.Queries,
			Samples:  tp.Samples,
			Estimate: JSONFloat(tp.Estimate),
			Degraded: tp.Degraded,
		})
	}
	// pp's slices are reused between samples; copy the spec results out.
	for li, si := range pp.Specs {
		j.planPartial[si] = pp.Partial[li]
	}
	j.planStats[pp.Group] = planGroupStat{Samples: pp.GroupSamples, Queries: pp.GroupQueries}
	j.trimTraceLocked()
	j.maybeCheckpointLocked()
	j.wakeLocked()
}

// trimTraceLocked trims the trace window in chunks (half at a time) so
// long jobs do a memmove every ~8k events instead of every append;
// callers hold j.mu.
func (j *Job) trimTraceLocked() {
	if len(j.trace) > maxTraceEvents {
		drop := len(j.trace) - maxTraceEvents/2
		n := copy(j.trace, j.trace[drop:])
		j.trace = j.trace[:n]
		j.traceBase += drop
	}
}

// wakeLocked wakes every trace follower; callers hold j.mu.
func (j *Job) wakeLocked() {
	close(j.traceWake)
	j.traceWake = make(chan struct{})
}

// Wait blocks until the job settles or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done returns the settle channel (closed when the job finished).
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns the job's current view.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

// viewLocked assembles the job's view; callers hold j.mu. A recovered
// finished job returns its stored view verbatim — its in-memory run
// state (plans, scoped meter, trace) did not survive the restart.
func (j *Job) viewLocked() View {
	if j.frozen != nil {
		return *j.frozen
	}
	v := View{
		ID:              j.ID,
		State:           j.state,
		Method:          j.Spec.Method,
		Seed:            j.Spec.Seed,
		Queries:         j.scoped.QueryCount(),
		DegradedSamples: j.degraded,
		DegradedQueries: j.tol.DegradedCount(),
		TraceLen:        j.traceBase + len(j.trace),
		Resumed:         j.resumed,
		CreatedAt:       j.createdAt,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.state.Finished() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	results := j.results
	if results == nil {
		results = j.planPartial
	}
	for _, r := range results {
		v.Results = append(v.Results, resultViewOf(r))
	}
	v.Plan = j.planViewLocked()
	// With several method groups each spec reports its own group's
	// samples; the job-level count is the total across groups.
	if j.planDone != nil {
		v.Samples = j.planDone.Samples
	} else {
		for _, st := range j.planStats {
			v.Samples += st.Samples
		}
	}
	return v
}

// planViewLocked assembles the wire view of the job's query plan from
// the compiled plan and the live (or final) group accounts; callers
// hold j.mu.
func (j *Job) planViewLocked() *PlanView {
	p := j.plan
	pv := &PlanView{Preds: p.Preds}
	for gi := range p.Groups {
		g := &p.Groups[gi]
		names := make([]string, len(g.Aggs))
		for i := range g.Aggs {
			names[i] = g.Aggs[i].Name
		}
		gv := PlanGroupView{
			Method:        g.Method,
			Seed:          g.Seed,
			Specs:         append([]int(nil), g.Specs...),
			Aggs:          names,
			Preds:         len(g.PredHashes),
			NeedsLocation: g.NeedsLocation,
			CostPerSample: g.CostPerSample,
		}
		switch {
		case j.planDone != nil:
			gr := j.planDone.Groups[gi]
			gv.Samples, gv.Queries, gv.CIMet = gr.Samples, gr.Queries, gr.CIMet
		case j.planStats != nil:
			gv.Samples, gv.Queries = j.planStats[gi].Samples, j.planStats[gi].Queries
		}
		pv.Groups = append(pv.Groups, gv)
	}
	if j.planDone != nil {
		pv.Replans = len(j.planDone.Replans)
	}
	return pv
}

// TraceFrom copies the trace events at absolute index ≥ from,
// reporting the absolute index right after the copied events, whether
// the job has settled, and the wake channel to wait on for more. When
// from falls before the retained window (trimmed by maxTraceEvents),
// the copy starts at the earliest retained event.
func (j *Job) TraceFrom(from int) (events []TraceEvent, next int, finished bool, wake <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < j.traceBase {
		from = j.traceBase
	}
	if off := from - j.traceBase; off < len(j.trace) {
		events = make([]TraceEvent, len(j.trace)-off)
		copy(events, j.trace[off:])
	}
	return events, from + len(events), j.state.Finished(), j.traceWake
}

// FollowTrace replays the retained trace from its earliest event and
// follows it until the job settles, the callback returns an error, or
// ctx is done. fn is called once per event, in order. For jobs longer
// than the retained window the replay starts mid-stream (every event
// carries its own Samples/Queries coordinates, so the stream stays
// interpretable).
func (j *Job) FollowTrace(ctx context.Context, fn func(TraceEvent) error) error {
	i := 0
	for {
		events, next, finished, wake := j.TraceFrom(i)
		for _, e := range events {
			if err := fn(e); err != nil {
				return err
			}
		}
		i = next
		if len(events) > 0 {
			continue // drain before deciding the job is over
		}
		if finished {
			return nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
