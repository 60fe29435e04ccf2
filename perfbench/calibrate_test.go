package main

import (
	"context"
	"flag"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/lbs"
	"repro/internal/workload"
)

var calibrate = flag.Int("calibrate", 0, "estimations per estimator for TestCalibrate (0 skips it)")

// calibSeed keeps the calibration's draws apart from those of the
// benchmark's seeds (job seeds are seed×1000003 + job).
const calibSeed = 1_000_000

// TestCalibrate measures the accuracy tables the estimation workloads
// gate on (lrTolerance, lnrTolerance): for each aggregate, the relative
// bias of one estimation and the relative standard deviation of one
// sample, over -calibrate estimations of the workload's own size. It
// also pools the estimations in blocks of a measured run's size and
// prints the largest block deviation in units of the gate's σ, to show
// that a 3σ band holds on these heavy-tailed estimators. Run it with
//
//	go test -run Calibrate -calibrate 600 -timeout 1h
func TestCalibrate(t *testing.T) {
	if *calibrate == 0 {
		t.Skip("set -calibrate to run")
	}
	cfg := config{seed: calibSeed, scale: fullScale}

	lr := newLRStack(cfg, nil)
	pool := make([]pooled, len(lr.truth))
	var c checks
	for job := 0; job < *calibrate; job++ {
		if _, err := lr.runJob(cfg, job, &c, &latencies{}, pool); err != nil {
			t.Fatal(err)
		}
	}
	if c.failed != 0 {
		t.Fatalf("%d lr-job checks failed", c.failed)
	}
	for i, name := range lrAggNames {
		reportCalibration(t, "lr-job "+name, pool[i].ests, cfg.scale.lrSamples, lr.truth[i], 75)
	}

	db := workload.WeiboChina(cfg.scale.lnrTuples, dataSeed).DB
	svc := lbs.NewService(db, lbs.Options{K: lnrK})
	ests := make([]float64, 0, *calibrate)
	for n := 0; n < *calibrate; n++ {
		est := core.NewLNRAggregator(svc, core.LNROptions{Seed: cfg.seed*1_000_003 + int64(n)})
		res, err := core.Run(context.Background(), est, []core.Aggregate{core.Count()},
			core.WithParallelism(runtime.NumCPU()), core.WithMaxSamples(cfg.scale.lnrSamples), core.WithoutTrace())
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res[0].Estimate)
	}
	reportCalibration(t, "lnr-remote COUNT", ests, cfg.scale.lnrSamples, float64(db.Len()), 15)
}

// reportCalibration prints the relative bias and per-sample relative
// standard deviation of estimations of m samples each, and the largest
// deviation of a block of the given size from the bias, in σ of the
// block's pooled sample count.
func reportCalibration(t *testing.T, name string, ests []float64, m int, truth float64, block int) {
	var sum, sq float64
	for _, e := range ests {
		r := e/truth - 1
		sum += r
		sq += r * r
	}
	n := float64(len(ests))
	bias := sum / n
	sd := math.Sqrt((sq/n-bias*bias)*n/(n-1)) * math.Sqrt(float64(m))
	worst := 0.0
	for lo := 0; lo+block <= len(ests); lo += block {
		var s float64
		for _, e := range ests[lo : lo+block] {
			s += e/truth - 1
		}
		z := (s/float64(block) - bias) / (sd / math.Sqrt(float64(block*m)))
		worst = math.Max(worst, math.Abs(z))
	}
	t.Logf("%s: bias %.4f ± %.4f (1σ), sample sd %.3f, over %d estimations of %d; worst block of %d: %.2fσ",
		name, bias, sd/math.Sqrt(n*float64(m)), sd, len(ests), m, block, worst)
}
