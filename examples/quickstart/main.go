// Quickstart: estimate COUNT(*) over a hidden spatial database that is
// only reachable through a top-k nearest-neighbor interface.
//
// The program builds a small simulated location based service, runs
// Algorithm LR-LBS-AGG against its kNN interface, and compares the
// estimate with the (normally unknowable) ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	lbsagg "repro"
)

func main() {
	// A 100×100 km city with 500 points of interest.
	bounds := lbsagg.NewRect(lbsagg.Pt(0, 0), lbsagg.Pt(100, 100))
	rng := rand.New(rand.NewSource(7))
	tuples := make([]lbsagg.Tuple, 500)
	for i := range tuples {
		tuples[i] = lbsagg.Tuple{
			ID:  int64(i + 1),
			Loc: lbsagg.Pt(rng.Float64()*100, rng.Float64()*100),
			Attrs: map[string]float64{
				"rating": 1 + rng.Float64()*4,
			},
		}
	}
	db := lbsagg.NewDatabase(bounds, tuples)

	// The service is the only thing the estimator may touch: a top-10
	// kNN interface with a 5,000-query budget (a rate limit stand-in).
	svc := lbsagg.NewService(db, lbsagg.ServiceOptions{K: 10, Budget: 5000})

	// Aggregates are declarative specs (API v3): the planner compiles
	// them once to the closure form the estimator runs (AVG becomes a
	// SUM/COUNT pair over the same samples), and the same JSON-ready
	// specs could be submitted to a remote estimation job unchanged
	// (see examples/jobs). Auto picks LR-LBS-AGG, since this interface
	// returns locations.
	plan, err := lbsagg.PlanBatch([]lbsagg.AggSpec{
		lbsagg.CountSpec(),
		lbsagg.AvgSpec("rating"),
	}, lbsagg.PlanOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// No run bounds: sample until the service budget is gone.
	br, err := plan.Execute(context.Background(), svc, nil)
	if err != nil {
		log.Fatal(err)
	}
	results := br.Results

	count, avg := results[0], results[1]
	fmt.Printf("queries spent:      %d (budget 5000)\n", count.Queries)
	fmt.Printf("samples completed:  %d\n", count.Samples)
	fmt.Printf("COUNT(*)  estimate: %.1f ± %.1f (truth %d)\n",
		count.Estimate, count.CI95, db.Len())
	fmt.Printf("AVG(rating) estimate: %.3f ± %.3f\n", avg.Estimate, avg.CI95)
}
