package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// lnr-remote: LNR COUNT estimations run in this process through
// core.Run with WithParallelism(nproc), against an httpapi.Client that
// talks over loopback TCP to httpapi.Server → CachedOracle → 4-shard
// Router → lbs.Service — the paper's remote rank-only setting. Query
// points never repeat, so the cache shows only its cost on misses.

const lnrK = 5

// lnrTolerance is LNR COUNT's measured accuracy at the default EdgeEps,
// from TestCalibrate over 600 estimations of 100 samples: the relative
// bias of Theorem 2's edge search (−16.2 % ± 1.8 %) and the per-sample
// relative standard deviation.
var lnrTolerance = tolerance{-0.162, 4.47}

type lnrStack struct {
	db    *lbs.Database
	opts  lbs.Options
	serve *serveStack
}

func newLNRStack(cfg config, tr *tracer, workers int) (*lnrStack, error) {
	db := workload.WeiboChina(cfg.scale.lnrTuples, dataSeed).DB
	opts := lbs.Options{K: lnrK}
	serve, err := newServeStack(db, opts, tr, workers, cfg.scale.replayPoints)
	if err != nil {
		return nil, err
	}
	return &lnrStack{db: db, opts: opts, serve: serve}, nil
}

// estimate runs one fixed-size estimation, checks its invariants and
// adds it to pool for the statistical check against the truth.
func (st *lnrStack) estimate(cfg config, n int, workers int, tr *tracer, sampleLat *latencies, c *checks, pool *pooled) (int, error) {
	est := &timedEstimator{
		inner: core.NewLNRAggregator(st.serve.oracle, core.LNROptions{Seed: cfg.seed*1_000_003 + int64(n)}),
		tr:    tr,
		lat:   sampleLat,
	}
	res, err := core.Run(context.Background(), est, []core.Aggregate{core.Count()},
		core.WithParallelism(workers), core.WithMaxSamples(cfg.scale.lnrSamples), core.WithoutTrace())
	if err != nil {
		return 0, err
	}
	r := res[0]
	ok := r.Samples == cfg.scale.lnrSamples && !math.IsNaN(r.Estimate) && !math.IsInf(r.Estimate, 0) && r.CI95 > 0 && !math.IsInf(r.CI95, 0)
	c.check(ok, "lnr-remote %d: %d samples, COUNT = %g ± %g", n, r.Samples, r.Estimate, r.CI95)
	if ok && pool != nil {
		pool.add(r.Estimate, r.CI95, r.Samples, float64(st.db.Len()))
	}
	return r.Samples, nil
}

// queryAccounting checks that every query the client sent was
// answered either by the cache or by the Router.
func (st *lnrStack) queryAccounting(c *checks) {
	sent := st.serve.client.QueryCount()
	logical := st.serve.router.Stats().Logical
	hits := st.serve.cache.Stats().Hits
	c.check(sent == logical+hits, "lnr-remote: client sent %d queries, router answered %d, cache %d", sent, logical, hits)
}

func runLNRRemote(cfg config) (result, error) {
	var c checks
	m := map[string]metric{}
	workers := runtime.NumCPU()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var setups []float64
	var st *lnrStack
	var refWall time.Duration
	for i := 0; i < cfg.scale.setups; i++ {
		last := i == cfg.scale.setups-1
		if st != nil {
			st.serve.close()
		}
		runtime.GC() // a set-up is not charged for the previous one's garbage
		t0 := time.Now()
		var t *tracer
		if last {
			t = tr
		}
		var err error
		if st, err = newLNRStack(cfg, t, workers); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if cfg.trace && i == cfg.scale.setups-2 {
			w0 := time.Now()
			for n := 0; n < cfg.scale.lnrRef; n++ {
				if _, err = st.estimate(cfg, n, workers, nil, &latencies{}, &c, nil); err != nil {
					return result{}, err
				}
			}
			refWall = time.Since(w0)
		}
	}
	defer st.serve.close()
	m["setup_s"] = metric{median(setups), "s"}

	sampleLat := &latencies{}
	var pool pooled
	samples := 0
	var tracedRefWall time.Duration
	q0 := st.serve.oracle.QueryCount()
	start := time.Now()
	sampleLat.begin(start)
	st.serve.oracle.lat.begin(start)
	for n := 0; n < max(1, cfg.scale.lnrRef) || time.Since(start) < cfg.seconds; n++ {
		s, err := st.estimate(cfg, n, workers, tr, sampleLat, &c, &pool)
		if err != nil {
			return result{}, err
		}
		if n == cfg.scale.lnrRef-1 {
			tracedRefWall = time.Since(start)
		}
		samples += s
	}
	end := time.Now()
	wall := end.Sub(start)
	queries := st.serve.oracle.QueryCount() - q0
	heapMB := liveHeapMB(st.serve.oracle.lat, sampleLat)
	pool.checkTruth(&c, "lnr-remote COUNT", float64(st.db.Len()), lnrTolerance, cfg.scale.minPooled)
	st.queryAccounting(&c)
	if samples == 0 {
		return result{}, fmt.Errorf("no samples drawn")
	}

	if !cfg.trace {
		lat := st.serve.oracle.lat
		m["samples_per_s"] = metric{sampleLat.rate(end), "1/s"}
		m["queries_per_sample"] = metric{float64(queries) / float64(samples), "count"}
		m["query_p50_us"] = metric{lat.quantileUS(0.50), "us"}
		m["apply_p50_us"] = metric{sampleLat.quantileUS(0.50), "us"}
		m["ops_per_s"] = metric{lat.rate(end), "1/s"}
		m["heap_mb"] = metric{heapMB, "MB"}
		return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
	}

	serve, err := replayServe(st.db, st.opts, st.serve.pts.points())
	if err != nil {
		return result{}, err
	}
	layerMetrics(m, traceSource{tr, float64(samples)}, traceSource{serve.tr, 0})
	m["router.fanout"] = metric{st.serve.fanout(), "ratio"}
	m["cache.hit_ratio"] = metric{hitRatio(st.serve.cache.Stats()), "ratio"}
	if err := addStoreReplay(m, st.db, st.opts); err != nil {
		return result{}, err
	}
	m["kdtree.us_per_query"] = metric{kdtreeReplayUS(st.db, st.opts, st.serve.pts.points()), "us"}
	m["trace.overhead_pct"] = metric{100 * (tracedRefWall.Seconds()/refWall.Seconds() - 1), "%"}
	m["query_p99_us"] = metric{st.serve.oracle.lat.quantileUS(0.99), "us"}
	m["apply_p99_us"] = metric{sampleLat.quantileUS(0.99), "us"}
	closeLedger(m, &c, tr, float64(workers)*float64(wall.Nanoseconds()))
	out, err := perLayerResult(m)
	if err != nil {
		return result{}, err
	}
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: out}, nil
}
