// Package httpapi exposes a simulated LBS over HTTP and provides a
// client that implements the estimators' Oracle interface — the
// blueprint for running the algorithms against a real networked
// service. Both sides use only the standard library. The per-query
// answer bodies (the GET endpoints and both :batch endpoints) go
// through a hand-written JSON codec (codec.go) whose bytes are
// identical to encoding/json's for the same answer, and whose decoder
// accepts only what json.Unmarshal accepts and yields the same
// records; FuzzAnswerCodec pins both. Everything else — batch request
// bodies, errors, /v1/meta, jobs and stats — uses encoding/json.
//
// Wire protocol (JSON over GET, plus POST for batches):
//
//	GET /v1/meta                      → {k, min_x, min_y, max_x, max_y}
//	GET /v1/lr?x=..&y=..[&name=..][&category=..]   → {results: [...with locations]}
//	GET /v1/lnr?x=..&y=..[&name=..][&category=..]  → {results: [...ids+attrs only]}
//	POST /v1/query/lr:batch   {points:[{x,y},...][,name][,category]}
//	  → {answers:[{results:[...]}|null, ...][, exhausted]}
//	POST /v1/query/lnr:batch  (same shape, rank-only results)
//	POST /v1/tuples:stream    NDJSON mutation ops → NDJSON per-op acks
//	                          (live backends only; see ingest.go)
//
// A batch answers up to maxBatchPoints locations in one HTTP request
// and one server-side budget reservation; answers are index-aligned
// with the points, a null answer marks a position the budget could
// not cover (exhausted=true rides along), and each answered point
// costs one unit of budget. Clients under heavy concurrent traffic
// should prefer the batch endpoints: the per-request overhead is paid
// once per batch instead of once per sample.
//
// Selection pass-through (§5.1) is declarative on the wire: name and
// category equality filters ride along as query parameters (or batch
// body fields). The client is constructed with a fixed Selection; the
// per-call filter argument of the Oracle interface must be nil (a
// functional filter cannot cross the network).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/live"
)

// Selection is the declarative server-side filter of the wire
// protocol: zero values match everything.
type Selection struct {
	Name     string
	Category string
}

func (s Selection) filter() lbs.Filter {
	if s.Name == "" && s.Category == "" {
		return nil
	}
	return func(t *lbs.Tuple) bool {
		return (s.Name == "" || t.Name == s.Name) &&
			(s.Category == "" || t.Category == s.Category)
	}
}

// wire types

type metaResponse struct {
	K    int     `json:"k"`
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
	// Metric names the backend's distance metric (euclidean |
	// haversine). Absent on pre-geodesic servers, which clients read as
	// euclidean.
	Metric string `json:"metric,omitempty"`
}

// codeBudgetExhausted marks a 429 caused by the service's hard query
// budget, which no amount of retrying will lift — as opposed to a
// transient rate-limit 429, which retry policies may wait out.
const codeBudgetExhausted = "budget_exhausted"

// codeJobsExhausted marks a 429 caused by the job table being at
// capacity with every retained job still running — transient server
// state that clears as soon as one job settles. Unlike a spent budget
// it IS worth retrying, and because the refused submission created no
// job, even non-idempotent clients may replay it safely.
const codeJobsExhausted = "jobs_exhausted"

type errorResponse struct {
	Error string `json:"error"`
	// Code is a machine-readable error class (codeBudgetExhausted).
	Code string `json:"code,omitempty"`
}

// Partial-answer headers: a federated backend that lost a shard still
// answers 200 from the survivors, carrying the lbs.PartialError
// annotation as response headers so remote callers keep the degraded-
// mode contract. Degraded counts positions answered from a partial
// federation, Dropped positions with no answer (their wire entries are
// null), Missing the member subqueries lost or skipped.
const (
	headerPartialDegraded = "X-Lbs-Partial-Degraded"
	headerPartialDropped  = "X-Lbs-Partial-Dropped"
	headerPartialMissing  = "X-Lbs-Partial-Missing"
)

// setPartialHeaders renders a partial annotation onto a 200 response.
func setPartialHeaders(w http.ResponseWriter, pe *lbs.PartialError) {
	h := w.Header()
	h.Set(headerPartialDegraded, strconv.Itoa(pe.Degraded))
	if pe.Dropped > 0 {
		h.Set(headerPartialDropped, strconv.Itoa(pe.Dropped))
	}
	if pe.Missing > 0 {
		h.Set(headerPartialMissing, strconv.Itoa(pe.Missing))
	}
}

// partialOfHeaders reconstructs the annotation client-side; nil when
// the response carries none.
func partialOfHeaders(h http.Header) *lbs.PartialError {
	deg := h.Get(headerPartialDegraded)
	if deg == "" {
		return nil
	}
	pe := &lbs.PartialError{}
	pe.Degraded, _ = strconv.Atoi(deg)
	pe.Dropped, _ = strconv.Atoi(h.Get(headerPartialDropped))
	pe.Missing, _ = strconv.Atoi(h.Get(headerPartialMissing))
	return pe
}

// batch wire types

type wirePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type batchRequest struct {
	Points   []wirePoint `json:"points"`
	Name     string      `json:"name,omitempty"`
	Category string      `json:"category,omitempty"`
}

// maxBatchPoints caps the points per batch request and
// maxBatchBodyBytes caps the request body read before decoding, so
// one POST can bound neither unbounded work nor unbounded memory on
// the server. 1024 points encode to ~50 KB; 256 KB leaves generous
// slack for selection strings.
const (
	maxBatchPoints    = 1024
	maxBatchBodyBytes = 256 << 10
)

// ErrPerCallFilter is returned by the HTTP client when a query
// carries a non-nil functional filter: closures cannot cross the
// network, so selections must be configured declaratively (Selection)
// per client. A federation front over remote upstreams surfaces it as
// a 400 — filtered queries need per-selection upstream clients, the
// same per-selection discipline CacheOptions.Selection imposes on
// shared caches.
var ErrPerCallFilter = errors.New("httpapi: per-call filters unsupported; configure Selection on the client")

// Server adapts a service view into an http.Handler. Any lbs.Querier
// works as the backend: the raw simulator, or a CachedOracle layered
// in front of it (a caching gateway). Beyond the raw oracle endpoints,
// the server runs estimation jobs (see handleEstimate and the jobs
// package) and reports live service stats (/v1/stats).
type Server struct {
	svc     lbs.Querier
	mutator live.Mutator
	jobs    *jobs.Manager
	mux     *http.ServeMux
	// metric is the backend's distance metric, probed once at
	// construction (metricOf) and advertised on /v1/meta and /v1/stats.
	metric geo.Metric
	// partials counts answers served degraded (partial federation).
	partials atomic.Int64
}

// ServerOptions configures the optional subsystems of a Server.
type ServerOptions struct {
	// Jobs configures the estimation-job manager (retention cap,
	// default per-job query budget).
	Jobs jobs.ManagerOptions
	// Mutator, when non-nil, enables the streaming mutation endpoint
	// (POST /v1/tuples:stream) against a live backend. It should be the
	// live database (or cluster) underlying svc, so queries observe the
	// applied mutations. Nil means an immutable backend: the endpoint
	// answers 501.
	Mutator live.Mutator
}

// NewServer wraps a service backend with default options.
func NewServer(svc lbs.Querier) *Server { return NewServerWith(svc, ServerOptions{}) }

// NewServerWith wraps a service backend.
func NewServerWith(svc lbs.Querier, opts ServerOptions) *Server {
	s := &Server{
		svc:     svc,
		mutator: opts.Mutator,
		jobs:    jobs.NewManager(svc, opts.Jobs),
		mux:     http.NewServeMux(),
		metric:  metricOf(svc),
	}
	s.mux.HandleFunc("/v1/meta", s.handleMeta)
	s.mux.HandleFunc("/v1/lr", s.handleLR)
	s.mux.HandleFunc("/v1/lnr", s.handleLNR)
	s.mux.HandleFunc("/v1/query/lr:batch", s.handleLRBatch)
	s.mux.HandleFunc("/v1/query/lnr:batch", s.handleLNRBatch)
	s.mux.HandleFunc("POST /v1/tuples:stream", s.handleTupleStream)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	return s
}

// Jobs returns the server's estimation-job manager (e.g. for a
// graceful CancelAll at shutdown).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeQueryError renders a failed backend query: budget exhaustion is
// a 429 carrying its machine-readable code (permanent — clients must
// not retry it); anything else is a 500 (transient from the client's
// point of view).
func writeQueryError(w http.ResponseWriter, err error) {
	if errors.Is(err, lbs.ErrBudgetExhausted) {
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Code: codeBudgetExhausted})
		return
	}
	if errors.Is(err, ErrPerCallFilter) {
		// The backend (e.g. a federation of remote upstreams) cannot
		// apply this request's selection: a client-side request
		// problem, not a server fault.
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	b := s.svc.Bounds()
	writeJSON(w, http.StatusOK, metaResponse{
		K:    s.svc.K(),
		MinX: b.Min.X, MinY: b.Min.Y, MaxX: b.Max.X, MaxY: b.Max.Y,
		Metric: s.metric.String(),
	})
}

// metricOf walks a backend's wrapper chain (lbs.Wrapper) for a layer
// that reports its distance metric — lbs.Service, shard.Router,
// live.Database and live.Cluster all do. A chain exposing none is
// Euclidean: every pre-geodesic backend ranks in the plane.
func metricOf(q lbs.Querier) geo.Metric {
	for q != nil {
		if mm, ok := q.(interface{ Metric() geo.Metric }); ok {
			return mm.Metric()
		}
		iw, ok := q.(lbs.Wrapper)
		if !ok {
			break
		}
		q = iw.Inner()
	}
	return geo.Euclidean
}

// parseQuery extracts the location and selection from the URL. It
// scans the raw query once instead of building url.Values, with the
// same reading: pairs split on '&', a pair holding ';' or failing to
// unescape is dropped, and the first occurrence of a key wins, as with
// Values.Get. Coordinates must be finite: ParseFloat also reads NaN
// and Inf, which locate nothing.
func parseQuery(r *http.Request) (geom.Point, Selection, error) {
	var xs, ys string
	var sel Selection
	var seen [4]bool // x, y, name, category
	for q := r.URL.RawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		var dst *string
		var i int
		switch key {
		case "x":
			dst, i = &xs, 0
		case "y":
			dst, i = &ys, 1
		case "name":
			dst, i = &sel.Name, 2
		case "category":
			dst, i = &sel.Category, 3
		default:
			continue
		}
		if seen[i] {
			continue
		}
		if *dst, ok = queryUnescape(val); ok {
			seen[i] = true
		}
	}
	x, errX := strconv.ParseFloat(xs, 64)
	y, errY := strconv.ParseFloat(ys, 64)
	if errX != nil || errY != nil {
		return geom.Point{}, Selection{}, fmt.Errorf("invalid or missing x/y")
	}
	if !finite(x) || !finite(y) {
		return geom.Point{}, Selection{}, fmt.Errorf("x/y must be finite")
	}
	return geom.Pt(x, y), sel, nil
}

// queryUnescape is url.QueryUnescape without the copy for the common
// value that needs no unescaping.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// writeAnswer renders a 200 answer body from a pooled buffer in one
// Write, the trailing newline included as json.Encoder writes it. An
// answer the codec refuses (a non-finite number) is a 500 instead,
// decided before any header is written.
func writeAnswer[T any](w http.ResponseWriter, v T, appendValue func([]byte, T) ([]byte, error)) {
	buf := getBuf()
	b, err := appendValue((*buf)[:0], v)
	if err != nil {
		putBuf(buf, b)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	putBuf(buf, b)
}

func (s *Server) handleLR(w http.ResponseWriter, r *http.Request) {
	p, sel, err := parseQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	recs, err := s.svc.QueryLR(r.Context(), p, sel.filter())
	if pe, ok := lbs.AsPartial(err); ok {
		s.partials.Add(1)
		setPartialHeaders(w, pe)
	} else if err != nil {
		writeQueryError(w, err)
		return
	}
	writeAnswer(w, recs, appendLRAnswer)
}

func (s *Server) handleLNR(w http.ResponseWriter, r *http.Request) {
	p, sel, err := parseQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	recs, err := s.svc.QueryLNR(r.Context(), p, sel.filter())
	if pe, ok := lbs.AsPartial(err); ok {
		s.partials.Add(1)
		setPartialHeaders(w, pe)
	} else if err != nil {
		writeQueryError(w, err)
		return
	}
	writeAnswer(w, recs, appendLNRAnswer)
}

// parseBatch decodes and validates a batch request body. The body is
// capped at maxBatchBodyBytes *before* decoding, so an oversized POST
// is rejected without allocating it. Anything but whitespace after the
// JSON object is rejected, as the client rejects it after an answer.
func parseBatch(w http.ResponseWriter, r *http.Request) ([]geom.Point, Selection, error) {
	if r.Method != http.MethodPost {
		return nil, Selection{}, fmt.Errorf("batch queries are POST-only")
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
	if err := dec.Decode(&req); err != nil {
		return nil, Selection{}, fmt.Errorf("invalid batch body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, Selection{}, fmt.Errorf("invalid batch body: trailing data after the JSON object")
	}
	if len(req.Points) == 0 {
		return nil, Selection{}, fmt.Errorf("batch needs at least one point")
	}
	if len(req.Points) > maxBatchPoints {
		return nil, Selection{}, fmt.Errorf("batch of %d points exceeds the %d-point cap", len(req.Points), maxBatchPoints)
	}
	pts := make([]geom.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = geom.Pt(p.X, p.Y)
	}
	return pts, Selection{Name: req.Name, Category: req.Category}, nil
}

// serveBatch is the protocol logic shared by both batch endpoints:
// parse, query through the given batch path, and render the aligned
// answers. A batch the budget covered partially returns 200 with nil
// holes and exhausted=true; a batch it covered not at all behaves
// like the single-query path (429).
func serveBatch[T any](s *Server, w http.ResponseWriter, r *http.Request,
	query func(context.Context, []geom.Point, lbs.Filter) ([][]T, error),
	appendAnswer func([]byte, []T) ([]byte, error)) {

	pts, sel, err := parseBatch(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	answers, err := query(r.Context(), pts, sel.filter())
	exhausted := errors.Is(err, lbs.ErrBudgetExhausted)
	if pe, ok := lbs.AsPartial(err); ok {
		// Degraded but answered: serve the survivors' merge (dropped
		// positions stay null) with the annotation in the headers.
		s.partials.Add(1)
		setPartialHeaders(w, pe)
	} else if err != nil && !exhausted {
		writeQueryError(w, err)
		return
	}
	served := false
	for _, recs := range answers {
		served = served || recs != nil
	}
	if exhausted && !served {
		writeQueryError(w, err)
		return
	}
	writeAnswer(w, answers, func(dst []byte, answers [][]T) ([]byte, error) {
		return appendBatch(dst, answers, exhausted, appendAnswer)
	})
}

func (s *Server) handleLRBatch(w http.ResponseWriter, r *http.Request) {
	serveBatch(s, w, r, s.svc.QueryLRBatch, appendLRAnswer)
}

func (s *Server) handleLNRBatch(w http.ResponseWriter, r *http.Request) {
	serveBatch(s, w, r, s.svc.QueryLNRBatch, appendLNRAnswer)
}

// Client is an HTTP implementation of the estimators' Oracle
// interface. It fetches the service metadata once at construction and
// counts queries locally (mirroring how a real client tracks its own
// quota consumption). Transient failures — transport errors, 5xx, and
// 429s that are genuine rate limiting rather than a spent budget — are
// retried with jittered exponential backoff (see RetryPolicy), so
// remote estimation runs survive flaky gateways. Beyond raw queries,
// the client drives server-side estimation jobs (Estimate, Job,
// CancelJob, FollowJobTrace, WaitJob).
type Client struct {
	base    string
	hc      *http.Client
	sel     Selection
	retry   RetryPolicy
	k       int
	bounds  geom.Rect
	metric  geo.Metric
	queries atomic.Int64
}

// SetRetryPolicy replaces the client's retry policy (default
// DefaultRetryPolicy). Call it before sharing the client between
// goroutines.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// metaTimeout bounds the construction-time /v1/meta probe when the
// caller's context carries no deadline of its own and the HTTP client
// has no Timeout, so a dead gateway cannot hang NewClient forever.
const metaTimeout = 10 * time.Second

// NewClient connects to a server at baseURL (e.g. the URL of an
// httptest server or a deployed gateway). sel is the fixed declarative
// selection sent with every query. httpClient may be nil for
// http.DefaultClient. The /v1/meta probe honors ctx (deadline and
// cancellation); without a deadline from either ctx or the client, a
// default timeout applies.
func NewClient(ctx context.Context, baseURL string, sel Selection, httpClient *http.Client) (*Client, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: baseURL, hc: httpClient, sel: sel, retry: DefaultRetryPolicy()}
	if _, ok := ctx.Deadline(); !ok && httpClient.Timeout == 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, metaTimeout)
		defer cancel()
	}
	resp, err := c.do(ctx, http.MethodGet, baseURL+"/v1/meta", nil)
	if err != nil {
		return nil, fmt.Errorf("httpapi: meta: %w", err)
	}
	defer resp.Body.Close()
	var meta metaResponse
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return nil, fmt.Errorf("httpapi: meta decode: %w", err)
	}
	c.k = meta.K
	c.bounds = geom.NewRect(geom.Pt(meta.MinX, meta.MinY), geom.Pt(meta.MaxX, meta.MaxY))
	// An absent metric field (pre-geodesic server) parses as Euclidean.
	c.metric, err = geo.ParseMetric(meta.Metric)
	if err != nil {
		return nil, fmt.Errorf("httpapi: meta: %w", err)
	}
	return c, nil
}

// Bounds implements core.Oracle.
func (c *Client) Bounds() geom.Rect { return c.bounds }

// K implements core.Oracle.
func (c *Client) K() int { return c.k }

// Metric is the distance metric the remote service advertised on
// /v1/meta (Euclidean for pre-geodesic servers). Distances in wire
// records are expressed in it, so estimators compiled for one metric
// must not run against a client reporting another.
func (c *Client) Metric() geo.Metric { return c.metric }

// QueryCount implements core.Oracle.
func (c *Client) QueryCount() int64 { return c.queries.Load() }

// get performs one wire query with the client's retry policy and
// decodes the answer into records with conv; the requests are built with ctx so
// the caller can cancel them in flight. The URL and the body go
// through one pooled buffer.
func get[T any](c *Client, ctx context.Context, endpoint string, p geom.Point,
	conv func(recordFields) T) ([]T, error) {

	buf := getBuf()
	b := c.appendQueryURL((*buf)[:0], endpoint, p)
	resp, err := c.do(ctx, http.MethodGet, string(b), nil)
	if err != nil {
		putBuf(buf, b)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		putBuf(buf, b)
		e := decodeError(resp)
		return nil, fmt.Errorf("httpapi: status %d: %s", resp.StatusCode, e.Error)
	}
	b, err = readBody(b, resp.Body)
	var recs []T
	if err == nil {
		recs, err = parseAnswer(b, c.k, conv)
	}
	putBuf(buf, b)
	if err != nil {
		return nil, fmt.Errorf("httpapi: answer body: %w", err)
	}
	c.queries.Add(1)
	// A degraded upstream answers 200 with the partial annotation in
	// the headers; reconstruct it so local and remote callers see the
	// same contract (records plus *lbs.PartialError).
	if pe := partialOfHeaders(resp.Header); pe != nil {
		return recs, pe
	}
	return recs, nil
}

// appendQueryURL appends the GET URL of one query. Parameters are in
// the order url.Values.Encode sorts them into, escaped as it escapes
// them, so the request line is the one it would build.
func (c *Client) appendQueryURL(dst []byte, endpoint string, p geom.Point) []byte {
	dst = append(dst, c.base...)
	dst = append(dst, endpoint...)
	dst = append(dst, '?')
	if c.sel.Category != "" {
		dst = append(dst, "category="...)
		dst = appendQueryEscape(dst, c.sel.Category)
		dst = append(dst, '&')
	}
	if c.sel.Name != "" {
		dst = append(dst, "name="...)
		dst = appendQueryEscape(dst, c.sel.Name)
		dst = append(dst, '&')
	}
	var num [32]byte
	dst = append(dst, "x="...)
	dst = appendQueryEscape(dst, strconv.AppendFloat(num[:0], p.X, 'g', -1, 64))
	dst = append(dst, "&y="...)
	return appendQueryEscape(dst, strconv.AppendFloat(num[:0], p.Y, 'g', -1, 64))
}

// appendQueryEscape appends s escaped as url.QueryEscape escapes it.
func appendQueryEscape[S ~string | ~[]byte](dst []byte, s S) []byte {
	const upperHex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			dst = append(dst, '%', upperHex[c>>4], upperHex[c&0xf])
		}
	}
	return dst
}

// QueryLR implements core.Oracle. filter must be nil: selections are
// fixed per client (they travel as URL parameters; functional filters
// cannot cross the network).
func (c *Client) QueryLR(ctx context.Context, p geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	if filter != nil {
		return nil, ErrPerCallFilter
	}
	return get(c, ctx, "/v1/lr", p, lrOfFields)
}

// QueryLNR implements core.Oracle (same filter restriction as QueryLR).
func (c *Client) QueryLNR(ctx context.Context, p geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	if filter != nil {
		return nil, ErrPerCallFilter
	}
	return get(c, ctx, "/v1/lnr", p, lnrOfFields)
}

// postBatch performs one batch POST and returns the decoded answers,
// the exhausted flag and the response's partial annotation (nil when it
// carries none), with the answered count already folded into the
// client's local query counter. A response that does not answer every
// point is an error, and so is a hole (a null answer) the response does
// not explain by budget exhaustion or dropped federation members.
func postBatch[T any](c *Client, ctx context.Context, endpoint string, pts []geom.Point,
	conv func(recordFields) T) ([][]T, bool, *lbs.PartialError, error) {

	req := batchRequest{
		Points:   make([]wirePoint, len(pts)),
		Name:     c.sel.Name,
		Category: c.sel.Category,
	}
	for i, p := range pts {
		req.Points[i] = wirePoint{X: p.X, Y: p.Y}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, nil, fmt.Errorf("httpapi: batch encode: %w", err)
	}
	// Batch POSTs retry like GETs: a batch query is semantically
	// idempotent (same points, same answers), so replaying a failed
	// attempt is safe — at worst the lost attempt's budget charge is
	// paid again, the same exposure a per-point GET retry has.
	resp, err := c.do(ctx, http.MethodPost, c.base+endpoint, body)
	if err != nil {
		return nil, false, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e := decodeError(resp)
		return nil, false, nil, fmt.Errorf("httpapi: batch status %d: %s", resp.StatusCode, e.Error)
	}
	buf := getBuf()
	b, err := readBody((*buf)[:0], resp.Body)
	var answers [][]T
	exhausted := false
	if err == nil {
		answers, exhausted, err = parseBatchAnswers(b, c.k, conv)
	}
	putBuf(buf, b)
	if err != nil {
		return nil, false, nil, fmt.Errorf("httpapi: batch body: %w", err)
	}
	answered := 0
	for _, a := range answers {
		if a != nil {
			answered++
		}
	}
	c.queries.Add(int64(answered))
	pe := partialOfHeaders(resp.Header)
	if len(answers) != len(pts) {
		return nil, false, nil, fmt.Errorf("httpapi: batch answered %d of %d points", len(answers), len(pts))
	}
	if answered < len(answers) && !exhausted && (pe == nil || pe.Dropped == 0) {
		return nil, false, nil, errors.New("httpapi: batch left points unanswered without budget exhaustion or dropped members")
	}
	return answers, exhausted, pe, nil
}

// clientBatch is the decode shape shared by both client batch
// methods: answers realigned to the request points, nil holes
// preserved, Exhausted mapped back to lbs.ErrBudgetExhausted. Batches
// larger than the server's per-POST point cap are transparently split
// into sequential chunk requests, so callers may size batches freely
// (e.g. core.WithBatch larger than maxBatchPoints); a budget death in
// one chunk stops the remaining chunks, leaving their positions nil.
func clientBatch[T any](c *Client, ctx context.Context, endpoint string, pts []geom.Point,
	filter lbs.Filter, conv func(recordFields) T) ([][]T, error) {

	if filter != nil {
		return nil, ErrPerCallFilter
	}
	if len(pts) == 0 {
		return nil, nil
	}
	out := make([][]T, len(pts))
	// Partial annotations from degraded upstream chunks accumulate and
	// ride back alongside the answers (nil unless some chunk degraded).
	var partial *lbs.PartialError
	for off := 0; off < len(pts); off += maxBatchPoints {
		end := min(off+maxBatchPoints, len(pts))
		answers, exhausted, pe, err := postBatch(c, ctx, endpoint, pts[off:end], conv)
		if err != nil {
			if off > 0 && errors.Is(err, lbs.ErrBudgetExhausted) {
				return out, err
			}
			return nil, err
		}
		if pe != nil {
			if partial == nil {
				partial = &lbs.PartialError{}
			}
			partial.Degraded += pe.Degraded
			partial.Dropped += pe.Dropped
			partial.Missing += pe.Missing
		}
		copy(out[off:end], answers)
		if exhausted {
			return out, lbs.ErrBudgetExhausted
		}
	}
	if partial != nil {
		return out, partial
	}
	return out, nil
}

// QueryLRBatch answers m location-returned queries in a single HTTP
// round-trip (the core.BatchOracle contract: index-aligned answers,
// nil for positions the server budget could not cover, alongside
// lbs.ErrBudgetExhausted).
func (c *Client) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	return clientBatch(c, ctx, "/v1/query/lr:batch", pts, filter, lrOfFields)
}

// QueryLNRBatch is the rank-only twin of QueryLRBatch.
func (c *Client) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	return clientBatch(c, ctx, "/v1/query/lnr:batch", pts, filter, lnrOfFields)
}
