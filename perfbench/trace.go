package main

// Outside-in tracing: timing wrappers that sit between the repo's
// layers at their public seams (lbs.Querier, core.Estimator,
// http.RoundTripper, http.Handler) and a span recorder that folds each
// finished span into per-layer totals as it closes, so memory stays
// bounded by the spans open at once rather than by the run length.

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// layer names the boundary a span was recorded at.
type layer uint8

const (
	layerCore    layer = iota // an estimator sample or a whole job (root)
	layerService              // an lbs.Service call
	layerClient               // an httpapi.Client call (client side of HTTP)
	layerHandler              // httpapi.Server.ServeHTTP (server side of HTTP)
	layerCache                // a CachedOracle call
	layerRouter               // a shard.Router call
	layerMember               // one federation member call (an lbs.Service)
	layerLive                 // a live.Database query
	layerApply                // a live.Database.Apply batch (root)
	numLayers
)

var layerNames = [numLayers]string{"core", "service", "client", "handler", "cache", "router", "member", "live", "apply"}

type spanKey struct{}

// spanOf returns the span ID carried by ctx (0 when none).
func spanOf(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

// openSpan is a span that has not ended, with the intervals of its
// ended children.
type openSpan struct {
	layer  layer
	parent int32
	start  int64
	kids   []interval
}

type interval struct{ lo, hi int64 }

// layerTotals accumulates the closed spans of one layer.
type layerTotals struct {
	calls int64
	dur   int64 // Σ span durations, ns
	self  int64 // Σ (duration − union of children), ns
}

// tracer records spans. A span's self time is its duration minus the
// union of its children's intervals, so concurrent children (a
// router's member fan-out) are not double-counted.
type tracer struct {
	t0      time.Time
	ids     atomic.Int32
	ambient atomic.Int32 // parent for spans whose ctx carries none

	mu      sync.Mutex
	open    map[int32]*openSpan
	totals  [numLayers]layerTotals
	rootDur int64 // Σ durations of spans without a parent, ns
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[int32]*openSpan)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span at layer l under the span ctx carries (or the
// ambient one) and returns the context its callees should see.
func (t *tracer) begin(ctx context.Context, l layer) (context.Context, int32) {
	parent := spanOf(ctx)
	if parent == 0 {
		parent = t.ambient.Load()
	}
	id := t.ids.Add(1)
	s := &openSpan{layer: l, parent: parent, start: t.now()}
	t.mu.Lock()
	t.open[id] = s
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), id
}

// end closes span id and folds it into its parent and the totals.
func (t *tracer) end(id int32) {
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.open[id]
	delete(t.open, id)
	dur := stop - s.start
	tot := &t.totals[s.layer]
	tot.calls++
	tot.dur += dur
	tot.self += dur - unionLen(s.kids, s.start, stop)
	if p := t.open[s.parent]; p != nil {
		p.kids = append(p.kids, interval{s.start, stop})
	} else {
		t.rootDur += dur
	}
}

// unionLen is the length of the union of ivs clipped to [lo, hi].
func unionLen(ivs []interval, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// snapshot copies the per-layer totals and the root spans' time.
func (t *tracer) snapshot() (tot [numLayers]layerTotals, rootDur int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals, t.rootDur
}

// latencies records per-operation durations at one boundary, and from
// begin on the operations completed in each rateWindow; it is the only
// instrument left on in untraced runs.
type latencies struct {
	mu        sync.Mutex
	ns        []int64
	t0        time.Time
	perWindow []window
}

// window counts the operations that completed in one rateWindow, and
// when the first and the last of them did (ns since begin).
type window struct{ n, first, last int64 }

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, int64(d))
	if !l.t0.IsZero() {
		at := int64(time.Since(l.t0))
		i := int(at / int64(rateWindow))
		for len(l.perWindow) <= i {
			l.perWindow = append(l.perWindow, window{})
		}
		w := &l.perWindow[i]
		if w.n == 0 {
			w.first = at
		}
		w.n++
		w.last = at
	}
	l.mu.Unlock()
}

// rateWindow is the window over which rate counts operations.
const rateWindow = time.Second

// begin starts counting operations per window at t0, the start of the
// measured phase.
func (l *latencies) begin(t0 time.Time) {
	l.mu.Lock()
	l.t0 = t0
	l.mu.Unlock()
}

// rate returns operations per second from begin to end: the median
// over the whole windows in between, so a burst of outside load during
// a few windows does not move it. A window's rate is its operations
// after the first over the time from the first to the last, which
// resolves finer than a count per window. Under three whole windows it
// is the mean over the whole span.
func (l *latencies) rate(end time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	span := end.Sub(l.t0)
	n := min(int(span/rateWindow), len(l.perWindow))
	if n < 3 {
		var total int64
		for _, w := range l.perWindow {
			total += w.n
		}
		return float64(total) / span.Seconds()
	}
	rates := make([]float64, n)
	for i, w := range l.perWindow[:n] {
		if w.n >= 2 {
			rates[i] = float64(w.n-1) / (float64(w.last-w.first) / 1e9)
		}
	}
	return median(rates)
}

// quantileUS returns the q-quantile in µs. Long records are split into
// up to ten consecutive windows of at least windowMin durations and the
// median of the windows' quantiles is returned, so a burst of outside
// load during one window does not move a tail percentile.
func (l *latencies) quantileUS(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := min(10, max(1, len(l.ns)/windowMin))
	qs := make([]float64, w)
	for i := range qs {
		qs[i] = quantile(l.ns[i*len(l.ns)/w:(i+1)*len(l.ns)/w], q) / 1e3
	}
	return median(qs)
}

// windowMin leaves at least ten durations above a window's p99.
const windowMin = 1000

// bytes is the memory the recorded durations and counts hold.
func (l *latencies) bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(cap(l.ns))*8 + int64(cap(l.perWindow))*24
}

// pointLog keeps the first query points seen at a boundary, for the
// kd-tree replay.
type pointLog struct {
	mu  sync.Mutex
	max int
	pts []geom.Point
}

func (p *pointLog) add(q geom.Point) {
	p.mu.Lock()
	if len(p.pts) < p.max {
		p.pts = append(p.pts, q)
	}
	p.mu.Unlock()
}

func (p *pointLog) points() []geom.Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]geom.Point(nil), p.pts...)
}

// timedQuerier records a span (when tr is set), a latency (when lat is
// set) and the query points (when pts is set) around every call into
// inner. It forwards the optional surfaces the layers above probe for
// — lbs.Wrapper, Metric and DegradedCount — so wrapping changes no
// behaviour.
type timedQuerier struct {
	inner lbs.Querier
	layer layer
	tr    *tracer
	lat   *latencies
	pts   *pointLog
}

var (
	_ lbs.Querier = (*timedQuerier)(nil)
	_ lbs.Wrapper = (*timedQuerier)(nil)
)

func (w *timedQuerier) enter(ctx context.Context, pts ...geom.Point) (context.Context, int32, time.Time) {
	if w.pts != nil {
		for _, p := range pts {
			w.pts.add(p)
		}
	}
	var id int32
	if w.tr != nil {
		ctx, id = w.tr.begin(ctx, w.layer)
	}
	var t0 time.Time
	if w.lat != nil {
		t0 = time.Now()
	}
	return ctx, id, t0
}

func (w *timedQuerier) exit(id int32, t0 time.Time) {
	if w.lat != nil {
		w.lat.add(time.Since(t0))
	}
	if id != 0 {
		w.tr.end(id)
	}
}

func (w *timedQuerier) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	ctx, id, t0 := w.enter(ctx, q)
	defer w.exit(id, t0)
	return w.inner.QueryLR(ctx, q, f)
}

func (w *timedQuerier) QueryLNR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LNRRecord, error) {
	ctx, id, t0 := w.enter(ctx, q)
	defer w.exit(id, t0)
	return w.inner.QueryLNR(ctx, q, f)
}

func (w *timedQuerier) QueryLRBatch(ctx context.Context, pts []geom.Point, f lbs.Filter) ([][]lbs.LRRecord, error) {
	ctx, id, t0 := w.enter(ctx, pts...)
	defer w.exit(id, t0)
	return w.inner.QueryLRBatch(ctx, pts, f)
}

func (w *timedQuerier) QueryLNRBatch(ctx context.Context, pts []geom.Point, f lbs.Filter) ([][]lbs.LNRRecord, error) {
	ctx, id, t0 := w.enter(ctx, pts...)
	defer w.exit(id, t0)
	return w.inner.QueryLNRBatch(ctx, pts, f)
}

func (w *timedQuerier) Bounds() geom.Rect    { return w.inner.Bounds() }
func (w *timedQuerier) K() int               { return w.inner.K() }
func (w *timedQuerier) QueryCount() int64    { return w.inner.QueryCount() }
func (w *timedQuerier) Inner() lbs.Querier   { return w.inner }
func (w *timedQuerier) Metric() geo.Metric   { return metricOf(w.inner) }
func (w *timedQuerier) DegradedCount() int64 { return degradedOf(w.inner) }

// metricOf and degradedOf walk a wrapper chain the way the repo's own
// probes do (httpapi's metric probe, core's degraded accounting).
func metricOf(q lbs.Querier) geo.Metric {
	for q != nil {
		if m, ok := q.(interface{ Metric() geo.Metric }); ok {
			return m.Metric()
		}
		w, ok := q.(lbs.Wrapper)
		if !ok {
			break
		}
		q = w.Inner()
	}
	return geo.Euclidean
}

func degradedOf(q lbs.Querier) int64 {
	for q != nil {
		if d, ok := q.(interface{ DegradedCount() int64 }); ok {
			return d.DegradedCount()
		}
		w, ok := q.(lbs.Wrapper)
		if !ok {
			break
		}
		q = w.Inner()
	}
	return 0
}

// timedEstimator opens a core span around every sample an estimator
// draws (and its forks draw), and records each sample's latency.
type timedEstimator struct {
	inner core.Estimator
	tr    *tracer
	lat   *latencies
}

var _ core.Estimator = (*timedEstimator)(nil)

func (e *timedEstimator) Step(ctx context.Context, aggs []core.Aggregate) ([]float64, error) {
	var id int32
	if e.tr != nil {
		ctx, id = e.tr.begin(ctx, layerCore)
	}
	t0 := time.Now()
	vals, err := e.inner.Step(ctx, aggs)
	e.lat.add(time.Since(t0))
	if id != 0 {
		e.tr.end(id)
	}
	return vals, err
}

func (e *timedEstimator) Service() core.Oracle { return e.inner.Service() }

func (e *timedEstimator) Fork(seed int64) core.Estimator {
	return &timedEstimator{inner: e.inner.Fork(seed), tr: e.tr, lat: e.lat}
}

// requestIDHeader carries the client span's ID across HTTP, so the
// server-side handler span nests under it.
const requestIDHeader = "X-Request-Id"

// spanTransport stamps the caller's span ID on outgoing requests.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := spanOf(r.Context()); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(requestIDHeader, strconv.FormatInt(int64(id), 10))
	}
	return t.base.RoundTrip(r)
}

// spanHandler opens a handler span under the request's X-Request-Id
// and hands the handler a context carrying it.
func spanHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if v, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 32); err == nil {
			ctx = context.WithValue(ctx, spanKey{}, int32(v))
		}
		ctx, id := tr.begin(ctx, layerHandler)
		next.ServeHTTP(w, r.WithContext(ctx))
		tr.end(id)
	})
}
