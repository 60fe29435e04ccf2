package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/lbs"
)

// traceSource is a tracer and the number of estimator samples drawn
// under it (for the per-sample core metrics).
type traceSource struct {
	tr      *tracer
	samples float64
}

// layerMetrics adds the per-call layer metrics to m. Each layer comes
// from the first source whose spans include it: the workload's own
// traced run first, then the replays that stand in for layers the
// workload bypasses.
func layerMetrics(m map[string]metric, sources ...traceSource) {
	find := func(l layer) (layerTotals, traceSource, bool) {
		for _, s := range sources {
			if s.tr == nil {
				continue
			}
			tot, _ := s.tr.snapshot()
			if tot[l].calls > 0 {
				return tot[l], s, true
			}
		}
		return layerTotals{}, traceSource{}, false
	}
	perCall := func(ns int64, calls int64) float64 { return float64(ns) / 1e3 / float64(calls) }

	if t, src, ok := find(layerCore); ok {
		m["core.self_ms_per_sample"] = metric{float64(t.self) / 1e6 / src.samples, "ms"}
		m["core.oracle_share_pct"] = metric{100 * float64(t.dur-t.self) / float64(t.dur), "%"}
	}
	// Federation members are lbs.Services: where no bare Service call
	// was traced, the member calls are the Service's.
	svc, src, ok := find(layerService)
	if !ok {
		svc, src, ok = find(layerMember)
	}
	if ok {
		m["service.us_per_call"] = metric{perCall(svc.dur, svc.calls), "us"}
		m["service.calls_per_sample"] = metric{float64(svc.calls) / src.samples, "count"}
	}
	if t, _, ok := find(layerClient); ok {
		m["client.us_per_call"] = metric{perCall(t.dur, t.calls), "us"}
		m["http.self_us"] = metric{perCall(t.self, t.calls), "us"}
	}
	for _, x := range []struct {
		l    layer
		name string
		self bool
	}{
		{layerHandler, "handler.self_us", true},
		{layerCache, "cache.self_us", true},
		{layerRouter, "router.self_us", true},
		{layerMember, "member.us_per_call", false},
		{layerLive, "live.us_per_query", false},
	} {
		if t, _, ok := find(x.l); ok {
			ns := t.dur
			if x.self {
				ns = t.self
			}
			m[x.name] = metric{perCall(ns, t.calls), "us"}
		}
	}
}

// closeLedger reports the traced run's ledger on stderr: each layer's
// self time (span duration minus the union of its children) as a share
// of the workers' time (workers × wall, less the benchmark's own input
// generation), and the time no root span covers. It adds that
// unattributed share to m as ledger.unattributed_pct. The ledger closes
// when the layers' self times plus the unattributed time sum to the
// workers' time within ±10 %: the self times overshoot it where spans
// overlap — a span's concurrent children (a router's member fan-out),
// or a span that lost its parent and runs beside it as a root. The
// unattributed share must itself stay within ±10 %.
func closeLedger(m map[string]metric, c *checks, tr *tracer, workerNS float64) {
	tot, rootDur := tr.snapshot()
	unattributed := workerNS - float64(rootDur)
	fmt.Fprintf(os.Stderr, "ledger over %.1f ms of worker time:\n", workerNS/1e6)
	sum := unattributed
	for l, t := range tot {
		if t.calls != 0 {
			fmt.Fprintf(os.Stderr, "  %-8s %10.1f ms %6.2f %%\n", layerNames[l], float64(t.self)/1e6, 100*float64(t.self)/workerNS)
		}
		sum += float64(t.self)
	}
	fmt.Fprintf(os.Stderr, "  %-8s %10.1f ms %6.2f %%\n", "(none)", unattributed/1e6, 100*unattributed/workerNS)
	fmt.Fprintf(os.Stderr, "  %-8s %10.1f ms %6.2f %%\n", "sum", sum/1e6, 100*sum/workerNS)
	m["ledger.unattributed_pct"] = metric{100 * unattributed / workerNS, "%"}
	c.check(math.Abs(sum-workerNS) <= 0.1*workerNS, "ledger: layer self times plus unattributed time are %.2f %% of the traced worker time", 100*sum/workerNS)
	c.check(math.Abs(unattributed) <= 0.1*workerNS, "ledger: %.2f %% of the traced worker time is unattributed", 100*unattributed/workerNS)
}

// endToEndUnits and perLayerUnits are the metrics a run reports, with
// their units: every end-to-end metric untraced, every per-layer
// metric traced, on every workload.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"samples_per_s":      "1/s",
	"queries_per_sample": "count",
	"query_p50_us":       "us",
	"apply_p50_us":       "us",
	"ops_per_s":          "1/s",
	"heap_mb":            "MB",
}

// The p99s are reported with the ledger rather than end to end: on a
// two-core host shared with other load they do not repeat within a
// tenth from run to run (apply_p99_us on live-churn follows the
// overlay-size and compaction cycle; query_p99_us on lr-job and
// lnr-remote follows the outside load).
var perLayerUnits = map[string]string{
	"apply_p99_us":                "us",
	"query_p99_us":                "us",
	"core.self_ms_per_sample":     "ms",
	"core.oracle_share_pct":       "%",
	"planner.groups":              "count",
	"planner.replans":             "count",
	"service.us_per_call":         "us",
	"service.calls_per_sample":    "count",
	"client.us_per_call":          "us",
	"http.self_us":                "us",
	"handler.self_us":             "us",
	"cache.self_us":               "us",
	"cache.hit_ratio":             "ratio",
	"cache.invalidated_per_apply": "count",
	"router.self_us":              "us",
	"router.fanout":               "ratio",
	"member.us_per_call":          "us",
	"live.us_per_query":           "us",
	"live.overlay_mean":           "count",
	"live.compactions":            "count",
	"store.wal_bytes_per_op":      "B",
	"store.warm_open_ms":          "ms",
	"store.pages_read":            "count",
	"kdtree.us_per_query":         "us",
	"trace.overhead_pct":          "%",
	"ledger.unattributed_pct":     "%",
}

// absentIsZero names the per-layer counts that are truly zero on a
// workload without the layer: no planner outside jobs, no mutations
// outside live-churn. Every other per-layer metric is measured on
// every workload, by replay where the workload bypasses the layer.
var absentIsZero = map[string]bool{
	"planner.groups":              true,
	"planner.replans":             true,
	"cache.invalidated_per_apply": true,
	"live.overlay_mean":           true,
	"live.compactions":            true,
	"store.wal_bytes_per_op":      true,
}

// perLayerResult keeps exactly the per-layer metrics of m, zero-filling
// the counts a workload has no layer for.
func perLayerResult(m map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		v, ok := m[name]
		switch {
		case ok && v.Unit != unit:
			return nil, fmt.Errorf("metric %s in %s, want %s", name, v.Unit, unit)
		case !ok && !absentIsZero[name]:
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = metric{v.Value, unit}
	}
	return out, nil
}

// addMetrics records the serving path's counters from a replay.
func (r serveReplay) addMetrics(m map[string]metric) {
	if _, ok := m["router.fanout"]; !ok {
		m["router.fanout"] = metric{r.fanout, "ratio"}
	}
	if _, ok := m["cache.hit_ratio"]; !ok {
		m["cache.hit_ratio"] = metric{r.hitRatio, "ratio"}
	}
}

// addStoreReplay measures the store's warm open on db for a workload
// that opens no store of its own.
func addStoreReplay(m map[string]metric, db *lbs.Database, opts lbs.Options) error {
	ms, pages, err := replayStore(db, opts)
	if err != nil {
		return err
	}
	m["store.warm_open_ms"] = metric{ms, "ms"}
	m["store.pages_read"] = metric{float64(pages), "count"}
	return nil
}
