package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/httpapi"
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/shard"
	"repro/internal/store"
)

// serveStack is the remote serving path: httpapi.Client over loopback
// TCP to httpapi.Server → CachedOracle → 4-shard Router → lbs.Service
// members. With a tracer, every boundary records spans; without one
// the stack is exactly what a deployment runs.
type serveStack struct {
	router *shard.Router
	cache  *lbs.CachedOracle
	client *httpapi.Client
	// oracle is the client as the estimator sees it: wrapped for the
	// per-call latency (and client spans when traced).
	oracle *timedQuerier
	// pts holds the first query points that reached the Router (traced
	// stacks only), for the kd-tree replay.
	pts    *pointLog
	srv    *http.Server
	served chan error
	tr     *http.Transport
}

const serveShards = 4

func newServeStack(db *lbs.Database, opts lbs.Options, tr *tracer, conns, keepPoints int) (*serveStack, error) {
	var wrap func(int, lbs.Querier) lbs.Querier
	if tr != nil {
		wrap = func(_ int, q lbs.Querier) lbs.Querier { return &timedQuerier{inner: q, layer: layerMember, tr: tr} }
	}
	router, err := shard.FromPartsWrapped(shard.Partition(db, serveShards), opts, shard.DefaultResilience(), wrap)
	if err != nil {
		return nil, err
	}
	s := &serveStack{router: router, served: make(chan error, 1), pts: &pointLog{}}
	var backend lbs.Querier = router
	if tr != nil {
		s.pts.max = keepPoints
		backend = &timedQuerier{inner: router, layer: layerRouter, tr: tr, pts: s.pts}
	}
	s.cache = lbs.NewCachedOracle(backend, lbs.CacheOptions{Metric: opts.Metric})
	var front lbs.Querier = s.cache
	var handler http.Handler
	if tr != nil {
		front = &timedQuerier{inner: s.cache, layer: layerCache, tr: tr}
		handler = spanHandler(tr, httpapi.NewServer(front))
	} else {
		handler = httpapi.NewServer(front)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: handler}
	go func() { s.served <- s.srv.Serve(ln) }()

	s.tr = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	var rt http.RoundTripper = s.tr
	if tr != nil {
		rt = spanTransport{base: s.tr}
	}
	s.client, err = httpapi.NewClient(context.Background(), "http://"+ln.Addr().String(), httpapi.Selection{}, &http.Client{Transport: rt})
	if err != nil {
		s.close()
		return nil, err
	}
	s.oracle = &timedQuerier{inner: s.client, layer: layerClient, tr: tr, lat: &latencies{}}
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	s.tr.CloseIdleConnections()
}

// kdtreeReplayUS replays recorded Service-boundary query points
// straight into a kd-tree over db's effective locations: the index
// walk alone, without ranking, records or wrappers. It returns µs per
// query.
func kdtreeReplayUS(db *lbs.Database, opts lbs.Options, pts []geom.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	locs := make([]geom.Point, db.Len())
	for i := range locs {
		locs[i] = db.EffectiveLoc(i)
	}
	tree := kdtree.Build(locs)
	maxDist := math.Inf(1)
	if opts.MaxRadius > 0 {
		maxDist = opts.MaxRadius
	}
	buf := make([]kdtree.Neighbor, 0, opts.K+1)
	var best time.Duration
	// The fastest of three passes: the replay is a lower bound on the
	// index's share, not a sample of it under load.
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for _, q := range pts {
			buf = tree.KNNWithinMetricInto(opts.Metric, q, opts.K+1, maxDist, nil, buf[:0])
		}
		if d := time.Since(t0); pass == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e3 / float64(len(pts))
}

// serveReplay is what replaying points through the serving path saw.
type serveReplay struct {
	tr       *tracer
	fanout   float64 // Router upstream subqueries per logical query
	hitRatio float64 // CachedOracle hits per lookup
}

// replayServe replays query points through the layers a workload
// bypasses — the remote serving path (client, HTTP, handler, cache,
// router, members) and a live database — over db, with tracing on.
func replayServe(db *lbs.Database, opts lbs.Options, pts []geom.Point) (serveReplay, error) {
	tr := newTracer()
	st, err := newServeStack(db, opts, tr, 1, 0)
	if err != nil {
		return serveReplay{}, err
	}
	defer st.close()
	ld, err := live.New(db, opts, live.Options{})
	if err != nil {
		return serveReplay{}, err
	}
	lq := &timedQuerier{inner: ld, layer: layerLive, tr: tr}
	ctx := context.Background()
	for _, q := range pts {
		if _, err := st.oracle.QueryLR(ctx, q, nil); err != nil {
			return serveReplay{}, fmt.Errorf("replay through the serve stack: %w", err)
		}
		if _, err := lq.QueryLR(ctx, q, nil); err != nil {
			return serveReplay{}, fmt.Errorf("replay through live: %w", err)
		}
	}
	return serveReplay{tr: tr, fanout: st.fanout(), hitRatio: hitRatio(st.cache.Stats())}, nil
}

// fanout is the Router's upstream subqueries per logical query.
func (s *serveStack) fanout() float64 {
	rs := s.router.Stats()
	if rs.Logical == 0 {
		return 0
	}
	return float64(rs.Upstream) / float64(rs.Logical)
}

func hitRatio(cs lbs.CacheStats) float64 {
	if cs.Hits+cs.Misses == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(cs.Hits+cs.Misses)
}

// replayCore runs a short LR estimation over an lbs.Service on db with
// tracing on, for a workload that bypasses the estimators.
func replayCore(db *lbs.Database, opts lbs.Options, samples int, seed int64) (*tracer, error) {
	tr := newTracer()
	svc := &timedQuerier{inner: lbs.NewService(db, opts), layer: layerService, tr: tr}
	est := &timedEstimator{inner: core.NewLRAggregator(svc, core.DefaultLROptions(seed)), tr: tr, lat: &latencies{}}
	if _, err := core.Run(context.Background(), est, []core.Aggregate{core.Count()}, core.WithMaxSamples(samples), core.WithoutTrace()); err != nil {
		return nil, fmt.Errorf("core replay: %w", err)
	}
	return tr, nil
}

// replayStore packs db into a fresh store under dir and times a warm
// open of the pack, for a workload that never opens a store. It
// returns the open time in ms and the pages it read.
func replayStore(db *lbs.Database, opts lbs.Options) (float64, uint64, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cold, err := store.Open(dir, store.Options{Metric: opts.Metric})
	if err != nil {
		return 0, 0, err
	}
	if _, _, err := cold.OpenOrCreateDatabase(func() *lbs.Database { return db }); err != nil {
		return 0, 0, err
	}
	warm, err := store.Open(dir, store.Options{Metric: opts.Metric})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	_, isWarm, err := warm.OpenOrCreateDatabase(func() *lbs.Database { return db })
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, 0, err
	}
	if !isWarm {
		return 0, 0, errors.New("store replay: second open was not warm")
	}
	return ms, warm.Stats().PagesRead, nil
}
