package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts correctness-checked operations and their failures.
type checks struct {
	attempted, failed int64
}

// check records one checked operation; a false ok is a failure and is
// reported on stderr with its reason.
func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// quantile is the nearest-rank q-quantile of ns (0 when empty).
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i])
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// liveHeapMB collects garbage and returns the live heap in MB, less
// what the benchmark's own latency recorders hold.
func liveHeapMB(recorders ...*latencies) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := int64(ms.HeapAlloc)
	for _, r := range recorders {
		heap -= r.bytes()
	}
	return float64(heap) / 1e6
}

// hostFingerprint names the machine and toolchain a run was made on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// writeReport prints one human-readable line per metric, then the
// result object as the last line.
func writeReport(w io.Writer, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// pooled combines fixed-size estimations of one aggregate — i.i.d.
// runs of the same estimator — into the estimate and CI95 of all
// their samples together (Chan et al.'s pairwise variance combination,
// with each run's variance recovered from its CI95).
type pooled struct {
	n      float64
	sum    float64 // Σ n_j e_j
	within float64 // Σ (n_j − 1) s_j²
	ests   []float64
	counts []float64
	perRun int // runs whose own CI95 missed the truth by more than 3×
	runs   int
}

func (p *pooled) add(est, ci95 float64, n int, truth float64) {
	p.runs++
	if math.Abs(est-truth) > 3*ci95 {
		p.perRun++
	}
	nj := float64(n)
	se := ci95 / 1.96
	p.n += nj
	p.sum += nj * est
	p.within += (nj - 1) * nj * se * se
	p.ests = append(p.ests, est)
	p.counts = append(p.counts, nj)
}

// ci95 returns the pooled estimate and its 95 % half-width.
func (p *pooled) ci95() (est, ci float64) {
	if p.n < 2 {
		return math.NaN(), math.NaN()
	}
	mean := p.sum / p.n
	between := 0.0
	for i, e := range p.ests {
		between += p.counts[i] * (e - mean) * (e - mean)
	}
	v := (p.within + between) / (p.n - 1)
	return mean, 1.96 * math.Sqrt(v/p.n)
}

// tolerance is an estimator's measured accuracy on one aggregate (see
// TestCalibrate): the relative bias of an estimation and the relative
// standard deviation of one sample.
type tolerance struct{ bias, sd float64 }

// checkTruth gates the run on its pooled estimate, once the pool holds
// at least minSamples samples: the relative error est/truth − 1 must
// lie within 3σ of the estimator's calibrated bias. σ is the larger of
// the calibrated tol.sd/√n for the pool's n samples and the run's own
// pooled standard error. The estimators are heavy-tailed on clustered
// data (rare tiny cells carry much of the total): a run that draws none
// of those cells underestimates its own σ, which the calibrated σ
// covers, and a run that draws one has a larger σ than a finite
// calibration saw, which its own σ covers. The bias is LNR's edge-search
// bias (Theorem 2); LR is unbiased. The estimations that missed the
// truth by more than 3× their own CI95 are printed, not gated.
func (p *pooled) checkTruth(c *checks, name string, truth float64, tol tolerance, minSamples int) {
	est, ci := p.ci95()
	rel := est/truth - 1
	sigma := max(tol.sd/math.Sqrt(p.n), ci/1.96/truth)
	fmt.Fprintf(os.Stderr, "%s: pooled %g ± %g (CI95) over %g samples, truth %g; relative error %.4f, gate %.4f ± 3 × %.4f; %d of %d estimations missed by more than 3× their own CI95\n",
		name, est, ci, p.n, truth, rel, tol.bias, sigma, p.perRun, p.runs)
	if p.n < float64(minSamples) {
		return
	}
	c.check(math.Abs(rel-tol.bias) <= 3*sigma, "%s: pooled relative error %.4f over %g samples is outside %.4f ± 3 × %.4f", name, rel, p.n, tol.bias, sigma)
}
