// Command perfbench is the repository's benchmark: three closed-loop
// workloads that drive the estimation and serving stack through its
// public constructors, check every answer, and report end-to-end
// metrics (untraced) or a per-layer ledger (traced).
//
//	go run . --workload lr-job --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name → value and unit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	scale   scale
}

// scale sizes the workloads; tinyScale serves the self-check.
type scale struct {
	setups int // set-ups per run; setup_s is their median

	// Traced runs first run a prefix of the workload untraced (jobs,
	// estimations or rounds); the traced run must reproduce its counts,
	// and the two timings give the tracing overhead.
	lrRef, lnrRef int

	lrTuples, lrSamples int // lr-job: schools, samples per job

	lnrTuples, lnrSamples int // lnr-remote: users, samples per estimation

	liveTuples int // live-churn: POIs in the base
	liveBatch  int // mutations per Apply
	liveReads  int // cache reads per round
	liveHot    int // distinct hot-spot read points
	liveRef    int

	replayPoints int // query points replayed into bypassed layers

	// minPooled is the pooled sample count from which an estimation
	// workload gates on its estimates (see pooled.checkTruth).
	minPooled int
}

// dataSeed generates the synthetic databases. They are the same on
// every run, like a benchmark's fixed data set; --seed drives what
// runs against them: estimator draws, mutation streams and reads.
const dataSeed = 1

var fullScale = scale{
	setups: 15,
	lrRef:  3, lnrRef: 1,
	lrTuples: 5000, lrSamples: 200,
	lnrTuples: 2000, lnrSamples: 100,
	liveTuples: 20000, liveBatch: 16, liveReads: 64, liveHot: 2048, liveRef: 1000,
	replayPoints: 2000,
	minPooled:    400,
}

var tinyScale = scale{
	setups: 2,
	lrRef:  2, lnrRef: 2,
	lrTuples: 600, lrSamples: 8,
	lnrTuples: 300, lnrSamples: 16,
	liveTuples: 1500, liveBatch: 8, liveReads: 16, liveHot: 128, liveRef: 20,
	replayPoints: 100,
	minPooled:    math.MaxInt,
}

var workloads = map[string]func(config) (result, error){
	"lr-job":     runLRJob,
	"lnr-remote": runLNRRemote,
	"live-churn": runLiveChurn,
}

func main() {
	name := flag.String("workload", "", "workload to run: lr-job | lnr-remote | live-churn")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scale:   fullScale,
	}
	host, _ := json.Marshal(hostFingerprint())
	fmt.Printf("host %s\n", host)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
