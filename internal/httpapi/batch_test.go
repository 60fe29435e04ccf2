package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// TestBatchRoundTrip: a batch POST answers the same records as
// per-point GETs and costs the same number of server-side queries.
func TestBatchRoundTrip(t *testing.T) {
	svc := testService(50, 3, 0, 2)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(90, 90), geom.Pt(50, 50)}

	answers, err := c.QueryLRBatch(ctx, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(pts) {
		t.Fatalf("answers: %d, want %d", len(answers), len(pts))
	}
	ref := testService(50, 3, 0, 2)
	for i, p := range pts {
		want, err := ref.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers[i]) != len(want) {
			t.Fatalf("point %d: %d records, want %d", i, len(answers[i]), len(want))
		}
		for j := range want {
			if answers[i][j].ID != want[j].ID || answers[i][j].Loc != want[j].Loc {
				t.Errorf("point %d record %d: %+v != %+v", i, j, answers[i][j], want[j])
			}
		}
	}
	if svc.QueryCount() != int64(len(pts)) {
		t.Errorf("server QueryCount = %d, want %d", svc.QueryCount(), len(pts))
	}
	if c.QueryCount() != int64(len(pts)) {
		t.Errorf("client QueryCount = %d, want %d", c.QueryCount(), len(pts))
	}

	// LNR twin.
	lnr, err := c.QueryLNRBatch(ctx, pts[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lnr) != 2 || len(lnr[0]) == 0 {
		t.Fatalf("LNR batch: %+v", lnr)
	}
}

// TestBatchSelectionPassThrough: the declarative filter rides in the
// batch body.
func TestBatchSelectionPassThrough(t *testing.T) {
	svc := testService(60, 5, 0, 3)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{Category: "school"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := c.QueryLRBatch(context.Background(), []geom.Point{geom.Pt(50, 50)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[0]) == 0 {
		t.Fatal("no results")
	}
	for _, r := range answers[0] {
		if r.Category != "school" {
			t.Errorf("selection leaked %q", r.Category)
		}
	}
	// Per-call functional filters cannot cross the wire.
	if _, err := c.QueryLRBatch(context.Background(), []geom.Point{geom.Pt(1, 1)}, lbs.CategoryFilter("cafe")); err == nil {
		t.Error("per-call filter should be rejected")
	}
}

// TestBatchBudgetExhaustion: partial batches surface the covered
// prefix plus ErrBudgetExhausted; a fully dead budget behaves like
// the single-query path (429 → ErrBudgetExhausted).
func TestBatchBudgetExhaustion(t *testing.T) {
	svc := testService(50, 2, 4, 5)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(20, 20), geom.Pt(30, 30), geom.Pt(40, 40), geom.Pt(50, 50), geom.Pt(60, 60)}
	answers, err := c.QueryLRBatch(context.Background(), pts, nil)
	if !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	for i := 0; i < 4; i++ {
		if answers[i] == nil {
			t.Errorf("answer %d nil, want served", i)
		}
	}
	for i := 4; i < 6; i++ {
		if answers[i] != nil {
			t.Errorf("answer %d served beyond budget", i)
		}
	}
	if c.QueryCount() != 4 {
		t.Errorf("client QueryCount = %d, want 4", c.QueryCount())
	}
	// Budget now fully dead.
	if _, err := c.QueryLRBatch(context.Background(), pts[:2], nil); !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Errorf("dead-budget err = %v, want ErrBudgetExhausted", err)
	}
}

// TestBatchEndpointValidation: malformed bodies, GETs and oversized
// batches are rejected with 400/ error statuses.
func TestBatchEndpointValidation(t *testing.T) {
	svc := testService(10, 2, 0, 7)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/query/lr:batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, body := range []string{"", "{", `{"points":[]}`} {
		resp := post(body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Oversized batch.
	var sb bytes.Buffer
	sb.WriteString(`{"points":[`)
	for i := 0; i <= maxBatchPoints; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"x":1,"y":2}`)
	}
	sb.WriteString(`]}`)
	resp := post(sb.String())
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d, want 400", resp.StatusCode)
	}
	// GET on a batch endpoint.
	getResp, err := http.Get(ts.URL + "/v1/query/lr:batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET batch: status %d, want 400", getResp.StatusCode)
	}
	if svc.QueryCount() != 0 {
		t.Errorf("invalid requests consumed %d queries", svc.QueryCount())
	}
}

// TestClientBatchChunksOversize: a client batch beyond the server's
// per-POST point cap is split transparently into chunked requests
// instead of failing with a 400.
func TestClientBatchChunksOversize(t *testing.T) {
	svc := testService(40, 2, 0, 9)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := maxBatchPoints + 50
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i%100), float64(i%100))
	}
	answers, err := c.QueryLRBatch(context.Background(), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != n {
		t.Fatalf("answers: %d, want %d", len(answers), n)
	}
	for i, a := range answers {
		if a == nil {
			t.Fatalf("answer %d nil", i)
		}
	}
	if svc.QueryCount() != int64(n) {
		t.Errorf("server QueryCount = %d, want %d", svc.QueryCount(), n)
	}
}

// TestClientBatchChunkBudgetDeath: when the budget dies in a later
// chunk, earlier chunks' answers are preserved alongside the error.
func TestClientBatchChunkBudgetDeath(t *testing.T) {
	budget := int64(maxBatchPoints + 10)
	svc := testService(40, 1, budget, 3)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := maxBatchPoints + 30
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i%100), float64(i%100))
	}
	answers, err := c.QueryLRBatch(context.Background(), pts, nil)
	if !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	served := 0
	for _, a := range answers {
		if a != nil {
			served++
		}
	}
	if served != int(budget) {
		t.Errorf("served %d answers, want %d (the budget)", served, budget)
	}
	if answers[0] == nil || answers[n-1] != nil {
		t.Errorf("budget death alignment wrong: first %v, last %v", answers[0] != nil, answers[n-1] != nil)
	}
}

// TestRemoteBatchedEstimationRun drives a full estimator through the
// remote batch path: NNO with WithBatch over an httpapi.Client issues
// one POST per seed batch and per probe set instead of one GET per
// query.
func TestRemoteBatchedEstimationRun(t *testing.T) {
	svc := testService(60, 1, 0, 11)
	inner := NewServer(svc)
	requests := 0
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nno := core.NewNNOBaseline(c, core.NNOOptions{Seed: 4, ProbesPerCell: 10})
	res, err := nno.Run(context.Background(), []core.Aggregate{core.Count()},
		core.WithMaxSamples(20), core.WithBatch(10))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 20 {
		t.Fatalf("samples = %d, want 20", res[0].Samples)
	}
	queries := svc.QueryCount()
	if int64(requests) >= queries {
		t.Errorf("batching saved nothing: %d HTTP requests for %d queries", requests, queries)
	}
	t.Logf("%d HTTP requests served %d queries (%.1f queries/request)",
		requests, queries, float64(queries)/float64(requests))
}

// TestServerOverCachedBackend: NewServer accepts a CachedOracle
// gateway; repeated remote queries hit the cache instead of the
// budget.
func TestServerOverCachedBackend(t *testing.T) {
	svc := testService(30, 2, 2, 13)
	cache := lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 128})
	ts := httptest.NewServer(NewServer(cache))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt(42, 42)
	for i := 0; i < 5; i++ {
		if _, err := c.QueryLR(context.Background(), p, nil); err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
	}
	if svc.QueryCount() != 1 {
		t.Errorf("service answered %d times, want 1 (cache served the rest)", svc.QueryCount())
	}
	if st := cache.Stats(); st.Hits != 4 {
		t.Errorf("cache hits = %d, want 4", st.Hits)
	}
}

// TestClientBatchRejectsMalformedAnswers: the client accepts a batch
// response only when it answers every point and each null answer is
// explained — by budget exhaustion or a partial-dropped annotation.
// A short batch or an unexplained hole is an error, never nil records
// with a nil error.
func TestClientBatchRejectsMalformedAnswers(t *testing.T) {
	var body, dropped string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/meta" {
			writeJSON(w, http.StatusOK, metaResponse{K: 1, MaxX: 1, MaxY: 1})
			return
		}
		if dropped != "" {
			w.Header().Set(headerPartialDegraded, "0")
			w.Header().Set(headerPartialDropped, dropped)
		}
		io.WriteString(w, body)
	}))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(NoRetry())
	ctx := context.Background()
	pts := []geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.9)}
	one := `{"results":[{"id":1,"x":0.5,"y":0.5,"dist":0.1}]}`

	for _, bad := range []string{
		`{"answers":[` + one + `]}`,
		`{"answers":[` + one + `,` + one + `,` + one + `]}`,
		`{"answers":[` + one + `,null]}`,
		`{"answers":[null,null]}`,
	} {
		body = bad
		if answers, err := c.QueryLRBatch(ctx, pts, nil); err == nil {
			t.Errorf("body %s: accepted as %v", bad, answers)
		}
		if _, err := c.QueryLNRBatch(ctx, pts, nil); err == nil {
			t.Errorf("body %s: LNR batch accepted", bad)
		}
	}

	// The same hole, explained by exhaustion or by dropped members.
	body = `{"answers":[` + one + `,null],"exhausted":true}`
	if answers, err := c.QueryLRBatch(ctx, pts, nil); !errors.Is(err, lbs.ErrBudgetExhausted) || answers[0] == nil || answers[1] != nil {
		t.Errorf("exhausted hole: %v, %v", answers, err)
	}
	body, dropped = `{"answers":[`+one+`,null]}`, "1"
	answers, err := c.QueryLRBatch(ctx, pts, nil)
	if pe, ok := lbs.AsPartial(err); !ok || pe.Dropped != 1 || answers[0] == nil || answers[1] != nil {
		t.Errorf("dropped hole: %v, %v", answers, err)
	}
}

// FuzzBatchRequest feeds arbitrary POST bodies to both batch endpoints
// of a healthy server with a small budget. No body may panic or draw a
// 5xx; a 400 charges no budget; a 200 answers every point of a request
// of at most maxBatchPoints, index-aligned — each answered position
// holds the reference answer at its point — charging one unit per
// answered position, with null holes only after the budget ran out.
func FuzzBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"points":[{"x":10,"y":10},{"x":90,"y":90},{"x":50,"y":50}]}`,
		`{"points":[{"x":10,"y":10}],"category":"school"}`,
		`{"points":[{"x":1,"y":2},{"x":1,"y":2}],"name":"nobody"}` + "\n\t ",
		`{"points":[{"x":1,"y":2}]} {"points":[]}`,
		`{"points":[{"x":1,"y":2}]}x`,
		`{"points":[]}`,
		`{"points":null}`,
		`{"points":[{"x":1e400,"y":0}]}`,
		`{"points":[{"x":-1e300,"y":1e300},{"x":-0,"y":5e-324}]}`,
		`{"points":[{"X":3,"Y":4,"z":[1,{}]}],"POINTS":[{"x":5}],"extra":null}`,
		`{"points":[{"x":"1","y":2}]}`,
		`{"points":{}}`,
		`null`,
		``,
		`[` + strings.Repeat(`{"x":1,"y":1},`, 70) + `{"x":2,"y":2}]`,
		`{"points":[` + strings.Repeat(`{"x":1,"y":1},`, maxBatchPoints) + `{"x":2,"y":2}]}`,
		`{"points":[` + strings.Repeat(`{"x":7,"y":3},`, 99) + `{"x":2,"y":2}]}`,
	} {
		f.Add([]byte(seed))
	}
	const budget = 64
	svc := testService(30, 3, budget, 41)
	ref := testService(30, 3, 0, 41)
	srv := NewServer(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, endpoint := range []string{"/v1/query/lr:batch", "/v1/query/lnr:batch"} {
			svc.ResetQueryCount()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body)))
			charged := svc.QueryCount()
			switch code := rec.Code; {
			case code >= 500:
				t.Fatalf("%s %q: status %d: %s", endpoint, body, code, rec.Body.Bytes())
			case code == http.StatusBadRequest:
				if charged != 0 {
					t.Fatalf("%s %q: 400 charged %d queries", endpoint, body, charged)
				}
			case code == http.StatusOK:
				checkBatchAnswers(t, endpoint, body, rec.Body.Bytes(), charged, ref)
			}
		}
	})
}

// checkBatchAnswers checks one 200 batch response against the request
// body it answered and an unbudgeted reference service.
func checkBatchAnswers(t *testing.T, endpoint string, body, resp []byte, charged int64, ref *lbs.Service) {
	t.Helper()
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("%s %q: 200 for a body json.Unmarshal refuses: %v", endpoint, body, err)
	}
	pts := make([]geom.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = geom.Pt(p.X, p.Y)
	}
	if len(pts) == 0 || len(pts) > maxBatchPoints {
		t.Fatalf("%s %q: 200 for %d points", endpoint, body, len(pts))
	}
	sel := Selection{Name: req.Name, Category: req.Category}
	var got, want [][]int64
	var exhausted bool
	var err error
	if endpoint == "/v1/query/lr:batch" {
		var answers [][]lbs.LRRecord
		answers, exhausted, err = parseBatchAnswers(resp, ref.K(), lrOfFields)
		wantRecs, _ := ref.QueryLRBatch(context.Background(), pts, sel.filter())
		lrID := func(r lbs.LRRecord) int64 { return r.ID }
		got, want = idsOf(answers, lrID), idsOf(wantRecs, lrID)
	} else {
		var answers [][]lbs.LNRRecord
		answers, exhausted, err = parseBatchAnswers(resp, ref.K(), lnrOfFields)
		wantRecs, _ := ref.QueryLNRBatch(context.Background(), pts, sel.filter())
		lnrID := func(r lbs.LNRRecord) int64 { return r.ID }
		got, want = idsOf(answers, lnrID), idsOf(wantRecs, lnrID)
	}
	if err != nil {
		t.Fatalf("%s %q: undecodable 200 body %q: %v", endpoint, body, resp, err)
	}
	if len(got) != len(pts) {
		t.Fatalf("%s %q: %d answers for %d points", endpoint, body, len(got), len(pts))
	}
	answered := int64(0)
	for i := range got {
		if got[i] == nil {
			if !exhausted {
				t.Fatalf("%s %q: null answer %d without exhaustion", endpoint, body, i)
			}
			continue
		}
		answered++
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s %q: answer %d is %v, want %v", endpoint, body, i, got[i], want[i])
		}
	}
	if answered != charged {
		t.Fatalf("%s %q: %d answered positions charged %d queries", endpoint, body, answered, charged)
	}
}

// idsOf lists each answer's tuple IDs; a null answer stays nil.
func idsOf[T any](answers [][]T, id func(T) int64) [][]int64 {
	out := make([][]int64, len(answers))
	for i, a := range answers {
		if a != nil {
			out[i] = make([]int64, len(a))
			for j, r := range a {
				out[i][j] = id(r)
			}
		}
	}
	return out
}
