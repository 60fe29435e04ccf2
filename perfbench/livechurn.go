package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/churn"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/store"
	"repro/internal/workload"
)

// live-churn: one goroutine interleaves rounds on a durable live
// database (store.OpenLive: WAL on, no fsync) over geodesic POIs under
// Haversine with a finite MaxRadius. Each round applies a batch of
// churn.Ops mutations, then reads Zipf-skewed hot spots through a
// CachedOracle that the database invalidates on every Apply. It covers
// the write path, the store, cache hits and invalidation, and the
// geodesic kd-tree; it bypasses core, HTTP and the router.

const (
	liveK         = 10
	liveMaxRadius = 150.0 // km
	liveChunk     = 8192  // mutations generated at a time
	zipfS         = 1.1
)

type liveStack struct {
	st     *store.Store
	db     *live.Database
	opts   lbs.Options
	cache  *lbs.CachedOracle
	front  *timedQuerier // reads: the cache as the workload sees it
	liveQ  *timedQuerier // the cache's inner: the live database
	hot    []geom.Point
	zipf   *rand.Zipf
	ops    []live.Op
	chunk  int64
	seed   int64
	openMS float64 // warm open of the store
	pages  uint64  // pages the warm open read
}

// prepareLiveDir packs the base into a fresh store directory (a cold
// open) and closes it: the durable data set that every set-up of the
// run reopens warm, as a restarting deployment does.
func prepareLiveDir(cfg config) (string, lbs.Options, error) {
	sc := workload.GeoUS(cfg.scale.liveTuples, dataSeed, workload.DensityGauss)
	opts := lbs.Options{K: liveK, Metric: sc.Metric, MaxRadius: liveMaxRadius}
	dir, err := os.MkdirTemp("", "perfbench-live-")
	if err != nil {
		return "", opts, err
	}
	cold, err := store.Open(dir, store.Options{Metric: opts.Metric})
	if err == nil {
		_, err = cold.OpenLive(func() *lbs.Database { return sc.DB }, opts, live.Options{})
	}
	if err == nil {
		// Close the WAL without a checkpoint: the pack holds the base at
		// epoch 0 and the WAL is empty.
		err = cold.Live().Close()
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", opts, err
	}
	return dir, opts, nil
}

// openLiveStack reopens the store in dir warm and builds the read path
// over it. Nothing is written to the store until the first Apply, so
// every set-up of a run opens the same state.
func openLiveStack(cfg config, dir string, opts lbs.Options, tr *tracer) (*liveStack, error) {
	ls := &liveStack{opts: opts, seed: cfg.seed}
	var err error
	if ls.st, err = store.Open(dir, store.Options{Metric: opts.Metric}); err != nil {
		return nil, err
	}
	lopts := live.Options{OnInvalidate: func(r geom.Rect) { ls.cache.Invalidate(r) }}
	t0 := time.Now()
	ls.db, err = ls.st.OpenLive(func() *lbs.Database { panic("warm open regenerated the base") }, opts, lopts)
	ls.openMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return nil, err
	}
	ls.pages = ls.st.Stats().PagesRead
	ls.liveQ = &timedQuerier{inner: ls.db, layer: layerLive, tr: tr}
	if tr != nil {
		ls.liveQ.pts = &pointLog{max: cfg.scale.replayPoints}
	}
	ls.cache = lbs.NewCachedOracle(ls.liveQ, lbs.CacheOptions{Capacity: 2 * cfg.scale.liveHot, Metric: opts.Metric})
	ls.front = &timedQuerier{inner: ls.cache, layer: layerCache, tr: tr, lat: &latencies{}}
	return ls, nil
}

// makeInputs generates the run's reads and first mutations over the
// opened database. They are the benchmark's own inputs, so set-up
// timing stops before them.
func (ls *liveStack) makeInputs(cfg config) {
	// Hot spots: jittered tuple locations, read with Zipf skew.
	rng := rand.New(rand.NewSource(cfg.seed + 7))
	base := ls.db.Snapshot()
	for i := 0; i < cfg.scale.liveHot; i++ {
		p := base.EffectiveLoc(rng.Intn(base.Len()))
		ls.hot = append(ls.hot, geom.Pt(p.X+rng.NormFloat64()*0.05, p.Y+rng.NormFloat64()*0.05))
	}
	ls.zipf = rand.NewZipf(rand.New(rand.NewSource(cfg.seed+11)), zipfS, 1, uint64(len(ls.hot)-1))
	ls.nextChunk()
}

// nextChunk generates the next mutations from the current snapshot;
// the stream is a function of the seed alone, because every earlier
// chunk was applied in full before this one is generated.
func (ls *liveStack) nextChunk() {
	ls.ops = churn.Ops(ls.db.Snapshot(), churn.Config{Seed: ls.seed*1_000_003 + ls.chunk}, liveChunk)
	ls.chunk++
}

// close releases the WAL and waits out a background compaction.
func (ls *liveStack) close() {
	ls.st.Live().Close()
	ls.db.Compact()
}

// liveCounts are the counters the traced run must reproduce.
type liveCounts struct{ hits, misses, invalidations int64 }

func (ls *liveStack) counts() liveCounts {
	cs := ls.cache.Stats()
	return liveCounts{cs.Hits, cs.Misses, cs.Invalidations}
}

// roundStats accumulates what the rounds of one phase measured.
type roundStats struct {
	applyLat *latencies
	genNS    int64 // time spent generating mutations (the benchmark's own)
	ops      int64
	overlay  int64 // Σ overlay size after each Apply (traced runs)
}

// round applies one mutation batch and issues the round's reads.
func (ls *liveStack) round(cfg config, tr *tracer, rs *roundStats, c *checks) {
	if len(ls.ops) < cfg.scale.liveBatch {
		t0 := time.Now()
		ls.nextChunk()
		rs.genNS += int64(time.Since(t0))
	}
	batch := ls.ops[:cfg.scale.liveBatch]
	ls.ops = ls.ops[cfg.scale.liveBatch:]
	ctx := context.Background()
	var id int32
	if tr != nil {
		_, id = tr.begin(ctx, layerApply)
	}
	t0 := time.Now()
	res := ls.db.Apply(ctx, batch)
	rs.applyLat.add(time.Since(t0))
	if id != 0 {
		tr.end(id)
		st := ls.db.Stats()
		rs.overlay += int64(st.DeltaLen + st.Tombstones)
	}
	rs.ops += int64(len(batch))
	failed := 0
	for _, r := range res {
		if r.Err != nil {
			failed++
		}
	}
	readErrs := 0
	for i := 0; i < cfg.scale.liveReads; i++ {
		if _, err := ls.front.QueryLR(ctx, ls.hot[ls.zipf.Uint64()], nil); err != nil {
			readErrs++
		}
	}
	c.check(failed == 0 && readErrs == 0, "live-churn: %d of %d mutations and %d reads failed", failed, len(batch), readErrs)
}

// Heap sampling after the measured phase: the live heap follows the
// overlay's growth and compaction, so one sample would depend on where
// in that cycle the run ended. heapRounds covers several compaction
// cycles at full scale (about 50 rounds each).
const heapRounds, heapEvery = 200, 5

// heapMB plays heapRounds more rounds, unmeasured, and returns the
// median of the live heap sampled every heapEvery rounds, less what the
// measured phase's latency recorders hold.
func (ls *liveStack) heapMB(cfg config, c *checks, applyLat *latencies) float64 {
	readLat := ls.front.lat
	ls.front.lat = nil
	defer func() { ls.front.lat = readLat }()
	rs := &roundStats{applyLat: &latencies{}}
	var mb []float64
	for r := 0; r < heapRounds; r++ {
		if r%heapEvery == 0 {
			mb = append(mb, liveHeapMB(readLat, applyLat, rs.applyLat))
		}
		ls.round(cfg, nil, rs, c)
	}
	return median(mb)
}

// verify checks every hot spot's answer through the cache against a
// fresh Service over the database's current snapshot: the live ==
// rebuilt and invalidation contracts.
func (ls *liveStack) verify(c *checks) {
	fresh := lbs.NewService(ls.db.Snapshot(), ls.opts)
	ctx := context.Background()
	for i, p := range ls.hot {
		got, err1 := ls.cache.QueryLR(ctx, p, nil)
		want, err2 := fresh.QueryLR(ctx, p, nil)
		c.check(err1 == nil && err2 == nil && reflect.DeepEqual(got, want), "live-churn: hot spot %d: cached answer differs from a rebuilt service (%v, %v)", i, err1, err2)
	}
}

func runLiveChurn(cfg config) (result, error) {
	var c checks
	m := map[string]metric{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// A traced run first plays the reference rounds untraced, on a data
	// set of its own, for the traced rounds to reproduce.
	var ref liveCounts
	var refWall time.Duration
	if cfg.trace {
		dir, opts, err := prepareLiveDir(cfg)
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(dir)
		ls, err := openLiveStack(cfg, dir, opts, nil)
		if err != nil {
			return result{}, err
		}
		ls.makeInputs(cfg)
		rs := &roundStats{applyLat: &latencies{}}
		w0 := time.Now()
		for r := 0; r < cfg.scale.liveRef; r++ {
			ls.round(cfg, nil, rs, &c)
		}
		refWall = time.Since(w0)
		ref = ls.counts()
		ls.close()
	}

	dir, opts, err := prepareLiveDir(cfg)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	var setups, opens []float64
	var ls *liveStack
	for i := 0; i < cfg.scale.setups; i++ {
		last := i == cfg.scale.setups-1
		if ls != nil {
			ls.close()
		}
		runtime.GC() // a set-up is not charged for the previous one's garbage
		t0 := time.Now()
		var t *tracer
		if last {
			t = tr
		}
		if ls, err = openLiveStack(cfg, dir, opts, t); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, ls.openMS)
	}
	defer ls.close()
	m["setup_s"] = metric{median(setups), "s"}
	ls.makeInputs(cfg)

	rs := &roundStats{applyLat: &latencies{}}
	rounds := 0
	var tracedRefWall time.Duration
	start := time.Now()
	rs.applyLat.begin(start)
	for rounds < cfg.scale.liveRef || time.Since(start) < cfg.seconds {
		ls.round(cfg, tr, rs, &c)
		rounds++
		if cfg.trace && rounds == cfg.scale.liveRef {
			tracedRefWall = time.Since(start)
			got := ls.counts()
			c.check(got == ref, "live-churn: after %d rounds the traced run counted %+v, untraced %+v", rounds, got, ref)
		}
	}
	end := time.Now()
	wall := end.Sub(start)
	cs := ls.cache.Stats()

	if !cfg.trace {
		// One Apply per round: the Apply recorder counts the rounds.
		roundsPerS := rs.applyLat.rate(end)
		m["samples_per_s"] = metric{roundsPerS, "1/s"}
		m["queries_per_sample"] = metric{float64(cs.Misses) / float64(rounds), "count"}
		m["query_p50_us"] = metric{ls.front.lat.quantileUS(0.50), "us"}
		m["apply_p50_us"] = metric{rs.applyLat.quantileUS(0.50), "us"}
		m["ops_per_s"] = metric{roundsPerS * float64(cfg.scale.liveBatch), "1/s"}
		m["heap_mb"] = metric{ls.heapMB(cfg, &c, rs.applyLat), "MB"}
		ls.verify(&c)
		return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
	}
	ls.verify(&c)

	snap := ls.db.Snapshot()
	pts := ls.liveQ.pts.points()
	serve, err := replayServe(snap, opts, pts)
	if err != nil {
		return result{}, err
	}
	coreTr, err := replayCore(snap, ls.opts, 10, cfg.seed)
	if err != nil {
		return result{}, err
	}
	coreTot, _ := coreTr.snapshot()
	layerMetrics(m, traceSource{tr, 0}, traceSource{coreTr, float64(coreTot[layerCore].calls)}, traceSource{serve.tr, 0})
	m["cache.hit_ratio"] = metric{hitRatio(cs), "ratio"}
	serve.addMetrics(m)
	m["cache.invalidated_per_apply"] = metric{float64(cs.Invalidations) / float64(rounds), "count"}
	ds := ls.db.Stats()
	m["live.overlay_mean"] = metric{float64(rs.overlay) / float64(rounds), "count"}
	m["live.compactions"] = metric{float64(ds.Compactions), "count"}
	m["store.wal_bytes_per_op"] = metric{float64(ls.st.Stats().WALBytes) / float64(rs.ops), "B"}
	m["store.warm_open_ms"] = metric{median(opens), "ms"}
	m["store.pages_read"] = metric{float64(ls.pages), "count"}
	m["kdtree.us_per_query"] = metric{kdtreeReplayUS(snap, ls.opts, pts), "us"}
	if tracedRefWall == 0 || refWall == 0 {
		return result{}, errors.New("reference rounds did not run")
	}
	m["trace.overhead_pct"] = metric{100 * (tracedRefWall.Seconds()/refWall.Seconds() - 1), "%"}
	m["query_p99_us"] = metric{ls.front.lat.quantileUS(0.99), "us"}
	m["apply_p99_us"] = metric{rs.applyLat.quantileUS(0.99), "us"}
	closeLedger(m, &c, tr, float64(wall.Nanoseconds()-rs.genNS))
	out, err := perLayerResult(m)
	if err != nil {
		return result{}, fmt.Errorf("live-churn: %w", err)
	}
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: out}, nil
}
