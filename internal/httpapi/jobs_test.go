package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// jobsTestService builds a deterministic service over a seeded
// workload; calling it twice yields two independent but identical
// services.
func jobsTestService(t *testing.T, n int, budget int64) *lbs.Service {
	t.Helper()
	sc := workload.USASchools(n, 7)
	return lbs.NewService(sc.DB, lbs.Options{K: 5, Budget: budget})
}

func newJobsClient(t *testing.T, srv *httptest.Server) *Client {
	t.Helper()
	c, err := NewClient(context.Background(), srv.URL, Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEstimateMatchesInProcessRun is the acceptance pin: a job
// submitted over the wire returns, for the same seed and budget,
// exactly the estimates of the equivalent in-process Run.
func TestEstimateMatchesInProcessRun(t *testing.T) {
	specs := []core.AggSpec{
		core.CountSpec(),
		core.SumSpec("enrollment"),
	}
	for _, method := range []string{jobs.MethodNNO, jobs.MethodLR} {
		t.Run(method, func(t *testing.T) {
			const budget = 800
			ctx := context.Background()

			// In-process reference run (its own identical service).
			aggs := make([]core.Aggregate, len(specs))
			for i := range specs {
				agg, err := specs[i].Compile()
				if err != nil {
					t.Fatal(err)
				}
				aggs[i] = agg
			}
			ref := jobsTestService(t, 250, budget)
			var est core.Estimator
			switch method {
			case jobs.MethodNNO:
				est = core.NewNNOBaseline(ref, core.NNOOptions{Seed: 42})
			case jobs.MethodLR:
				est = core.NewLRAggregator(ref, core.DefaultLROptions(42))
			}
			want, err := core.Run(ctx, est, aggs)
			if err != nil {
				t.Fatal(err)
			}

			// The same run, submitted as a server-side job.
			srv := httptest.NewServer(NewServer(jobsTestService(t, 250, budget)))
			defer srv.Close()
			c := newJobsClient(t, srv)
			v, err := c.Estimate(ctx, jobs.Spec{Method: method, Seed: 42, Aggregates: specs})
			if err != nil {
				t.Fatal(err)
			}
			if v.State != jobs.StateRunning && v.State != jobs.StateDone {
				t.Fatalf("fresh job in state %s", v.State)
			}
			final, err := c.WaitJob(ctx, v.ID, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != jobs.StateDone {
				t.Fatalf("job state %s (err %q), want done", final.State, final.Error)
			}
			if len(final.Results) != len(want) {
				t.Fatalf("got %d results, want %d", len(final.Results), len(want))
			}
			for i, r := range final.Results {
				if float64(r.Estimate) != want[i].Estimate {
					t.Errorf("%s: remote estimate %v != in-process %v",
						r.Name, float64(r.Estimate), want[i].Estimate)
				}
				if r.Samples != want[i].Samples {
					t.Errorf("%s: remote samples %d != in-process %d", r.Name, r.Samples, want[i].Samples)
				}
			}
		})
	}
}

// TestDeleteMidRunYieldsPartialResults is the second acceptance pin:
// DELETE on a running job returns partial Results with N > 0.
func TestDeleteMidRunYieldsPartialResults(t *testing.T) {
	srv := httptest.NewServer(NewServer(jobsTestService(t, 250, 0)))
	defer srv.Close()
	ctx := context.Background()
	c := newJobsClient(t, srv)
	v, err := c.Estimate(ctx, jobs.Spec{
		Method:     jobs.MethodNNO,
		Seed:       1,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    jobs.RunOptions{MaxSamples: 10_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, err := c.Job(ctx, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Samples > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no sample completed in 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := c.CancelJob(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}
	if len(got.Results) == 0 || got.Results[0].Samples == 0 {
		t.Fatalf("canceled job returned no partial results: %+v", got.Results)
	}
	// Idempotent: a second DELETE returns the same settled view.
	again, err := c.CancelJob(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != jobs.StateCanceled || again.Results[0].Samples != got.Results[0].Samples {
		t.Fatalf("second DELETE changed the view: %+v vs %+v", again, got)
	}
}

// TestJobTraceStreams pins the NDJSON trace: replay + follow to
// completion, ordered samples, decodable events.
func TestJobTraceStreams(t *testing.T) {
	srv := httptest.NewServer(NewServer(jobsTestService(t, 250, 0)))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := newJobsClient(t, srv)
	v, err := c.Estimate(ctx, jobs.Spec{
		Method:     jobs.MethodNNO,
		Seed:       3,
		Aggregates: []core.AggSpec{core.CountSpec(), core.SumSpec("enrollment")},
		Options:    jobs.RunOptions{MaxSamples: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []jobs.TraceEvent
	if err := c.FollowJobTrace(ctx, v.ID, func(e jobs.TraceEvent) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 60 {
		t.Fatalf("got %d trace events, want 60 (30 samples × 2 aggregates)", len(events))
	}
	names := map[string]int{}
	for _, e := range events {
		names[e.Agg]++
		if e.Samples < 1 || e.Samples > 30 {
			t.Fatalf("event with samples=%d out of range", e.Samples)
		}
	}
	if names["COUNT(*)"] != 30 || names["SUM(enrollment)"] != 30 {
		t.Fatalf("unexpected per-aggregate event counts: %v", names)
	}
}

// TestEstimateRejectsMalformedSpecs pins the 400 path, including
// malformed predicate trees.
func TestEstimateRejectsMalformedSpecs(t *testing.T) {
	srv := httptest.NewServer(NewServer(jobsTestService(t, 50, 0)))
	defer srv.Close()
	bodies := []string{
		`{`, // not JSON
		`{"method":"warp","aggregates":[{"kind":"count"}]}`,
		`{"method":"lr","aggregates":[]}`,
		`{"method":"lr","aggregates":[{"kind":"count","where":{"op":"between"}}]}`,
		`{"method":"lr","aggregates":[{"kind":"count","where":{"op":"and"}}]}`,
		`{"method":"lr","aggregates":[{"kind":"sum"}]}`,
	}
	for _, body := range bodies {
		resp, err := http.Post(srv.URL+"/v1/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Unknown job id → 404.
	resp, err := http.Get(srv.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestStatsEndpoint pins /v1/stats over a cached backend: query
// counts, remaining budget, cache counters and job counts.
func TestStatsEndpoint(t *testing.T) {
	svc := jobsTestService(t, 100, 500)
	cache := lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 64})
	srv := httptest.NewServer(NewServer(cache))
	defer srv.Close()
	ctx := context.Background()
	c := newJobsClient(t, srv)

	// Two identical queries: one miss (charged), one hit (free).
	if _, err := c.QueryLR(ctx, svc.Bounds().Min, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryLR(ctx, svc.Bounds().Min, nil); err != nil {
		t.Fatal(err)
	}
	// One finished job.
	v, err := c.Estimate(ctx, jobs.Spec{
		Method:     jobs.MethodNNO,
		Seed:       9,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    jobs.RunOptions{MaxSamples: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, v.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Queries         int64 `json:"queries"`
		BudgetRemaining int64 `json:"budget_remaining"`
		Cache           *struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Jobs map[string]int `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries == 0 {
		t.Errorf("stats.queries = 0, want > 0")
	}
	if stats.BudgetRemaining != 500-stats.Queries {
		t.Errorf("budget_remaining %d, want %d", stats.BudgetRemaining, 500-stats.Queries)
	}
	if stats.Cache == nil {
		t.Fatalf("stats.cache missing over a CachedOracle backend")
	}
	if stats.Cache.Hits < 1 || stats.Cache.Misses < 1 {
		t.Errorf("cache counters hits=%d misses=%d, want ≥1 each", stats.Cache.Hits, stats.Cache.Misses)
	}
	if stats.Jobs["done"] != 1 {
		t.Errorf("jobs done = %d, want 1 (%v)", stats.Jobs["done"], stats.Jobs)
	}
}
