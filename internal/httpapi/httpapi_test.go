package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

func testService(n int, k int, budget int64, seed int64) *lbs.Service {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: 4, UniformFrac: 0.3, Seed: seed,
	})
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		cat := "cafe"
		if i%2 == 0 {
			cat = "school"
		}
		tuples[i] = lbs.Tuple{
			ID: int64(i + 1), Loc: p, Category: cat,
			Attrs: map[string]float64{"v": float64(i % 5)},
			Tags:  map[string]string{"flag": map[bool]string{true: "y", false: "n"}[i%3 == 0]},
		}
	}
	return lbs.NewService(lbs.NewDatabase(bounds, tuples), lbs.Options{K: k, Budget: budget})
}

func TestMetaRoundTrip(t *testing.T) {
	svc := testService(20, 4, 0, 1)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 4 {
		t.Errorf("k: %d", c.K())
	}
	if c.Bounds() != svc.Bounds() {
		t.Errorf("bounds: %+v", c.Bounds())
	}
}

func TestQueryLRRoundTrip(t *testing.T) {
	svc := testService(50, 3, 0, 2)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(50, 50)
	got, err := c.QueryLR(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.QueryLR(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !got[i].Loc.ApproxEq(want[i].Loc, 1e-9) {
			t.Fatalf("row %d: %+v vs %+v", i, got[i], want[i])
		}
		if got[i].Attrs["v"] != want[i].Attrs["v"] || got[i].Tags["flag"] != want[i].Tags["flag"] {
			t.Fatalf("attrs lost over the wire: %+v", got[i])
		}
	}
	if c.QueryCount() != 1 {
		t.Errorf("client query count: %d", c.QueryCount())
	}
}

func TestQueryLNRHidesLocations(t *testing.T) {
	svc := testService(30, 3, 0, 3)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, _ := NewClient(context.Background(), ts.URL, Selection{}, nil)
	got, err := c.QueryLNR(context.Background(), geom.Pt(30, 30), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("results: %d", len(got))
	}
	// Wire check: the LNR endpoint must not include coordinates.
	resp, err := ts.Client().Get(ts.URL + "/v1/lnr?x=30&y=30")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"x"`) || strings.Contains(string(body), `"dist"`) {
		t.Errorf("LNR response leaks location fields: %s", body)
	}
}

func TestSelectionOverWire(t *testing.T) {
	svc := testService(60, 10, 0, 4)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, _ := NewClient(context.Background(), ts.URL, Selection{Category: "school"}, nil)
	got, err := c.QueryLR(context.Background(), geom.Pt(50, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results")
	}
	for _, r := range got {
		if r.Category != "school" {
			t.Fatalf("selection leak: %+v", r)
		}
	}
}

func TestPerCallFilterRejected(t *testing.T) {
	svc := testService(10, 2, 0, 5)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, _ := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if _, err := c.QueryLR(context.Background(), geom.Pt(1, 1), func(*lbs.Tuple) bool { return true }); err == nil {
		t.Errorf("functional filter should be rejected")
	}
	if _, err := c.QueryLNR(context.Background(), geom.Pt(1, 1), func(*lbs.Tuple) bool { return true }); err == nil {
		t.Errorf("functional filter should be rejected (LNR)")
	}
}

func TestBudgetExhaustionOverWire(t *testing.T) {
	svc := testService(10, 2, 3, 6)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, _ := NewClient(context.Background(), ts.URL, Selection{}, nil)
	for i := 0; i < 3; i++ {
		if _, err := c.QueryLR(context.Background(), geom.Pt(1, 1), nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	_, err := c.QueryLR(context.Background(), geom.Pt(1, 1), nil)
	if !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted over the wire, got %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	svc := testService(10, 2, 0, 7)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/lr?x=abc&y=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad x: status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/lr")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing coords: status %d", resp.StatusCode)
	}
	// ParseFloat reads these, but they locate nothing: 400, and the
	// budget is not charged.
	for _, q := range []string{"x=NaN&y=30", "x=Inf&y=30", "x=1&y=-Inf", "x=%2BInf&y=1", "x=nan&y=infinity"} {
		for _, ep := range []string{"/v1/lr?", "/v1/lnr?"} {
			resp, err := ts.Client().Get(ts.URL + ep + q)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 400 {
				t.Errorf("%s%s: status %d, want 400", ep, q, resp.StatusCode)
			}
		}
	}
	if n := svc.QueryCount(); n != 0 {
		t.Errorf("bad requests charged %d queries", n)
	}
}

// TestParseQueryMatchesURLValues pins the raw-query scanner to the
// url.Values reading it replaced: first well-formed occurrence wins,
// pairs with ';' or bad escapes are dropped, values are unescaped.
func TestParseQueryMatchesURLValues(t *testing.T) {
	for _, raw := range []string{
		"x=1&y=2", "y=2&x=1&x=3", "x=1;y=5&y=2", "x=%zz&x=4&y=%2B5", "%78=1.5&y=2e3",
		"x=1&y=2&name=caf%C3%A9+bar&category=a%26b&name=second", "&&x=1&=7&y&y=2&category=",
		"x=0x1p-2&y=1_0", "x=1&y=2&name=%", "x= 1&y=2", "x=1&y=2&category=%2", "x=1",
	} {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		p, sel, err := parseQuery(r)
		v, _ := url.ParseQuery(raw)
		x, errX := strconv.ParseFloat(v.Get("x"), 64)
		y, errY := strconv.ParseFloat(v.Get("y"), 64)
		if (err != nil) != (errX != nil || errY != nil) {
			t.Errorf("%q: error %v, url.Values errors %v / %v", raw, err, errX, errY)
			continue
		}
		if err == nil && (p != geom.Pt(x, y) || sel != (Selection{Name: v.Get("name"), Category: v.Get("category")})) {
			t.Errorf("%q: %v %+v, url.Values reads (%v, %v) %q %q", raw, p, sel, x, y, v.Get("name"), v.Get("category"))
		}
	}
}

// TestQueryURLMatchesValuesEncode: the client's hand-built GET URL is
// the one url.Values.Encode built, so the request line is unchanged.
func TestQueryURLMatchesValuesEncode(t *testing.T) {
	for _, sel := range []Selection{{}, {Name: "a b&c=d/é"}, {Category: "café+~._-"}, {Name: "x", Category: "%y"}} {
		c := &Client{base: "http://h:1", sel: sel}
		for _, p := range []geom.Point{geom.Pt(1, 2), geom.Pt(-0.000001234, 1e21), geom.Pt(math.Copysign(0, -1), 5e-324)} {
			v := url.Values{}
			v.Set("x", strconv.FormatFloat(p.X, 'g', -1, 64))
			v.Set("y", strconv.FormatFloat(p.Y, 'g', -1, 64))
			if sel.Name != "" {
				v.Set("name", sel.Name)
			}
			if sel.Category != "" {
				v.Set("category", sel.Category)
			}
			want := c.base + "/v1/lr?" + v.Encode()
			if got := string(c.appendQueryURL(nil, "/v1/lr", p)); got != want {
				t.Errorf("URL %s, want %s", got, want)
			}
		}
	}
}

// nonFiniteBackend answers with a distance JSON cannot carry.
type nonFiniteBackend struct{ lbs.Querier }

func (nonFiniteBackend) QueryLR(context.Context, geom.Point, lbs.Filter) ([]lbs.LRRecord, error) {
	return []lbs.LRRecord{{ID: 1, Dist: math.NaN()}}, nil
}

// TestNonFiniteAnswerIs500: an answer the codec cannot encode is a
// 500 with an error body, not a 200 with an empty one.
func TestNonFiniteAnswerIs500(t *testing.T) {
	ts := httptest.NewServer(NewServer(nonFiniteBackend{testService(10, 2, 0, 7)}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/lr?x=1&y=1")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || decodeErr != nil || e.Error == "" {
		t.Errorf("status %d, body error %q (decode %v); want 500 with an error body", resp.StatusCode, e.Error, decodeErr)
	}
}

// TestRemoteRunMatchesLocal pins remote == local: with one worker and
// a fixed seed, LR and LNR runs over the HTTP client draw the same
// points and read the same answers as over the Service itself, so
// every result field matches exactly.
func TestRemoteRunMatchesLocal(t *testing.T) {
	aggs := func() []core.Aggregate {
		return []core.Aggregate{core.Count(), core.SumAttr("v"), core.CountTag("flag", "y")}
	}
	for _, method := range []string{"lr", "lnr"} {
		run := func(o core.Oracle) []core.Result {
			t.Helper()
			var est core.Estimator = core.NewLRAggregator(o, core.DefaultLROptions(21))
			samples := 60
			if method == "lnr" {
				est, samples = core.NewLNRAggregator(o, core.LNROptions{Seed: 22}), 8
			}
			res, err := core.Run(context.Background(), est, aggs(), core.WithMaxSamples(samples), core.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		local := run(testService(80, 5, 0, 8))
		svc := testService(80, 5, 0, 8)
		ts := httptest.NewServer(NewServer(svc))
		client, err := NewClient(context.Background(), ts.URL, Selection{}, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		remote := run(client)
		ts.Close()
		for i := range local {
			l, r := local[i], remote[i]
			if l.Estimate != r.Estimate || l.CI95 != r.CI95 || l.Samples != r.Samples || l.Queries != r.Queries {
				t.Errorf("%s %s: remote %v ± %v (%d samples, %d queries), local %v ± %v (%d samples, %d queries)",
					method, l.Name, r.Estimate, r.CI95, r.Samples, r.Queries, l.Estimate, l.CI95, l.Samples, l.Queries)
			}
		}
		if client.QueryCount() != svc.QueryCount() || local[0].Queries != svc.QueryCount() {
			t.Errorf("%s: client counted %d queries, server %d, local run %d", method, client.QueryCount(), svc.QueryCount(), local[0].Queries)
		}
	}
}

// TestEndToEndEstimationOverHTTP is the headline integration test: the
// full LR-LBS-AGG estimator running against a service it can only
// reach over the network.
func TestEndToEndEstimationOverHTTP(t *testing.T) {
	svc := testService(80, 5, 0, 8)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	client, err := NewClient(context.Background(), ts.URL, Selection{}, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	agg := core.NewLRAggregator(client, core.DefaultLROptions(9))
	res, err := agg.Run(context.Background(), []core.Aggregate{core.Count()}, core.WithMaxSamples(150))
	if err != nil {
		t.Fatal(err)
	}
	truth := 80.0
	if res[0].StdErr > 0 {
		z := (res[0].Estimate - truth) / res[0].StdErr
		if z > 4 || z < -4 {
			t.Errorf("HTTP estimation off: %v (z=%v)", res[0].Estimate, z)
		}
	}
	if client.QueryCount() == 0 {
		t.Errorf("no queries counted on the client")
	}
	// LNR over HTTP as well.
	lnr := core.NewLNRAggregator(client, core.LNROptions{Seed: 10})
	resL, err := lnr.Run(context.Background(), []core.Aggregate{core.Count()}, core.WithMaxSamples(15))
	if err != nil {
		t.Fatal(err)
	}
	if resL[0].Samples != 15 {
		t.Errorf("LNR over HTTP: %+v", resL[0])
	}
}

// TestClientContextCancellation: both the construction-time meta probe
// and in-flight queries must honor context cancellation.
func TestClientContextCancellation(t *testing.T) {
	svc := testService(20, 3, 0, 9)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewClient(canceled, ts.URL, Selection{}, nil); err == nil {
		t.Fatal("NewClient with canceled context succeeded")
	}

	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryLR(canceled, geom.Pt(1, 1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query error = %v, want context.Canceled", err)
	}
	if _, err := c.QueryLR(context.Background(), geom.Pt(1, 1), nil); err != nil {
		t.Fatalf("live query after canceled one: %v", err)
	}
}
