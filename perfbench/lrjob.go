package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// lr-job: LR estimation jobs, one after another, through jobs.Manager
// over an in-process lbs.Service. Each job is a planner batch of
// COUNT, SUM(enrollment) and AVG(enrollment) WHERE enrollment > 500
// with a fixed sample count, so geometry (cells, planner, estimator)
// dominates and HTTP, cache, router and live are bypassed.

type lrStack struct {
	db    *lbs.Database
	opts  lbs.Options
	truth []float64
	// svc is the Service as the job manager sees it: wrapped for the
	// per-query latency (and service spans when traced).
	svc *timedQuerier
	mgr *jobs.Manager
}

const lrK = 5

func newLRStack(cfg config, tr *tracer) *lrStack {
	sc := workload.USASchools(cfg.scale.lrTuples, dataSeed)
	db := sc.DB
	enroll := func(t *lbs.Tuple) float64 { return t.Attr("enrollment") }
	big := func(t *lbs.Tuple) bool { return t.Attr("enrollment") > 500 }
	st := &lrStack{
		db:   db,
		opts: lbs.Options{K: lrK},
		truth: []float64{
			float64(db.Len()),
			db.GroundTruth(enroll, nil),
			db.GroundTruth(enroll, big) / float64(db.Count(big)),
		},
	}
	st.svc = &timedQuerier{inner: lbs.NewService(db, st.opts), layer: layerService, tr: tr, lat: &latencies{}}
	if tr != nil {
		st.svc.pts = &pointLog{max: cfg.scale.replayPoints}
	}
	// One retained job: finished jobs are evicted as the next starts,
	// so the heap does not grow with the run length.
	st.mgr = jobs.NewManager(st.svc, jobs.ManagerOptions{MaxJobs: 1})
	return st
}

// lrAggNames names the job's aggregates, in the order of lrSpec.
var lrAggNames = []string{"COUNT", "SUM(enrollment)", "AVG(enrollment | enrollment > 500)"}

// lrTolerance is the measured accuracy of each aggregate, in the order
// of lrSpec: zero bias (LR is unbiased; the measured biases, −0.9 %,
// −1.3 % and +0.4 %, are each within 1.1σ of zero) and the per-sample
// relative standard deviation, from TestCalibrate over 600 jobs of 200
// samples.
var lrTolerance = []tolerance{{0, 4.51}, {0, 4.85}, {0, 2.11}}

func lrSpec(cfg config, job int) jobs.Spec {
	return jobs.Spec{
		Method: jobs.MethodLR,
		Seed:   cfg.seed*1_000_003 + int64(job),
		Aggregates: []core.AggSpec{
			core.CountSpec(),
			core.SumSpec("enrollment"),
			core.AvgSpec("enrollment").WithWhere(core.AttrCmp("enrollment", core.CmpGT, 500)),
		},
		Options: jobs.RunOptions{MaxSamples: cfg.scale.lrSamples, Parallelism: 1},
	}
}

// lrJobOut is what one job reports.
type lrJobOut struct {
	samples int
	queries int64
	plan    *jobs.PlanView
}

// runJob runs one job to completion, recording per-sample latencies
// from its trace stream. It checks the job's invariants here and adds
// its estimates to pool, one per aggregate, for the statistical check
// against the truth.
func (st *lrStack) runJob(cfg config, job int, c *checks, sampleLat *latencies, pool []pooled) (lrJobOut, error) {
	t0 := time.Now()
	j, err := st.mgr.Create(lrSpec(cfg, job))
	if err != nil {
		return lrJobOut{}, err
	}
	followed := make(chan error, 1)
	go func() {
		last, prev := 0, t0
		followed <- j.FollowTrace(context.Background(), func(e jobs.TraceEvent) error {
			if e.Samples != last {
				now := time.Now()
				sampleLat.add(now.Sub(prev))
				last, prev = e.Samples, now
			}
			return nil
		})
	}()
	if err := j.Wait(context.Background()); err != nil {
		return lrJobOut{}, err
	}
	if err := <-followed; err != nil {
		return lrJobOut{}, err
	}
	v := j.Snapshot()
	ok := v.State == jobs.StateDone && len(v.Results) == len(st.truth) && v.Samples == cfg.scale.lrSamples
	for i := 0; ok && i < len(v.Results); i++ {
		r := v.Results[i]
		est, ci := float64(r.Estimate), float64(r.CI95)
		ok = r.Samples == v.Samples && !math.IsNaN(est) && !math.IsInf(est, 0) && ci > 0 && !math.IsInf(ci, 0)
		if ok && pool != nil {
			pool[i].add(est, ci, r.Samples, st.truth[i])
		}
	}
	c.check(ok, "lr-job %d: state %s (%s), %d samples, results %+v", job, v.State, v.Error, v.Samples, v.Results)
	return lrJobOut{samples: v.Samples, queries: v.Queries, plan: v.Plan}, nil
}

func runLRJob(cfg config) (result, error) {
	var c checks
	m := map[string]metric{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set up several times; setup_s is the median. In a traced run the
	// second-to-last set-up serves the untraced reference jobs that the
	// traced jobs must reproduce.
	var setups []float64
	var st *lrStack
	var ref []lrJobOut
	var refWall time.Duration
	for i := 0; i < cfg.scale.setups; i++ {
		last := i == cfg.scale.setups-1
		runtime.GC() // a set-up is not charged for the previous one's garbage
		t0 := time.Now()
		var t *tracer
		if last {
			t = tr
		}
		st = newLRStack(cfg, t)
		setups = append(setups, time.Since(t0).Seconds())
		if cfg.trace && i == cfg.scale.setups-2 {
			w0 := time.Now()
			for job := 0; job < cfg.scale.lrRef; job++ {
				out, err := st.runJob(cfg, job, &c, &latencies{}, nil)
				if err != nil {
					return result{}, err
				}
				ref = append(ref, out)
			}
			refWall = time.Since(w0)
		}
	}
	m["setup_s"] = metric{median(setups), "s"}

	sampleLat := &latencies{}
	pool := make([]pooled, len(st.truth))
	var samples int
	var queries int64
	var plan *jobs.PlanView
	var tracedRefWall time.Duration
	start := time.Now()
	sampleLat.begin(start)
	st.svc.lat.begin(start)
	for job := 0; job < max(1, len(ref)) || time.Since(start) < cfg.seconds; job++ {
		var root int32
		if tr != nil {
			// jobs.Manager runs each job on a context of its own, so the
			// Service spans attach to the job span through the ambient
			// parent; jobs run one at a time, so the attachment is exact.
			_, root = tr.begin(context.Background(), layerCore)
			tr.ambient.Store(root)
		}
		out, err := st.runJob(cfg, job, &c, sampleLat, pool)
		if tr != nil {
			tr.ambient.Store(0)
			tr.end(root)
		}
		if err != nil {
			return result{}, err
		}
		if job < len(ref) {
			c.check(out.queries == ref[job].queries && out.samples == ref[job].samples,
				"lr-job %d: traced run spent %d queries / %d samples, untraced %d / %d", job, out.queries, out.samples, ref[job].queries, ref[job].samples)
			if job == len(ref)-1 {
				tracedRefWall = time.Since(start)
			}
		}
		samples += out.samples
		queries += out.queries
		plan = out.plan
	}
	end := time.Now()
	wall := end.Sub(start)
	heapMB := liveHeapMB(st.svc.lat, sampleLat)
	for i, name := range lrAggNames {
		pool[i].checkTruth(&c, "lr-job "+name, st.truth[i], lrTolerance[i], cfg.scale.minPooled)
	}
	c.check(samples > 0 && st.svc.QueryCount() >= queries, "lr-job: %d samples, service answered %d of %d job queries", samples, st.svc.QueryCount(), queries)
	if samples == 0 {
		return result{}, fmt.Errorf("no samples drawn")
	}

	if !cfg.trace {
		m["samples_per_s"] = metric{sampleLat.rate(end), "1/s"}
		m["queries_per_sample"] = metric{float64(queries) / float64(samples), "count"}
		m["query_p50_us"] = metric{st.svc.lat.quantileUS(0.50), "us"}
		m["apply_p50_us"] = metric{sampleLat.quantileUS(0.50), "us"}
		m["ops_per_s"] = metric{st.svc.lat.rate(end), "1/s"}
		m["heap_mb"] = metric{heapMB, "MB"}
		runtime.KeepAlive(st)
		return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
	}

	// Traced: the per-layer ledger, with replays for bypassed layers.
	pts := st.svc.pts.points()
	serve, err := replayServe(st.db, st.opts, pts)
	if err != nil {
		return result{}, err
	}
	layerMetrics(m, traceSource{tr, float64(samples)}, traceSource{serve.tr, 0})
	serve.addMetrics(m)
	if plan != nil {
		m["planner.groups"] = metric{float64(len(plan.Groups)), "count"}
		m["planner.replans"] = metric{float64(plan.Replans), "count"}
	}
	if err := addStoreReplay(m, st.db, st.opts); err != nil {
		return result{}, err
	}
	m["kdtree.us_per_query"] = metric{kdtreeReplayUS(st.db, st.opts, pts), "us"}
	m["trace.overhead_pct"] = metric{100 * (tracedRefWall.Seconds()/refWall.Seconds() - 1), "%"}
	m["query_p99_us"] = metric{st.svc.lat.quantileUS(0.99), "us"}
	m["apply_p99_us"] = metric{sampleLat.quantileUS(0.99), "us"}
	closeLedger(m, &c, tr, float64(wall.Nanoseconds()))
	out, err := perLayerResult(m)
	if err != nil {
		return result{}, err
	}
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: out}, nil
}
