package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

// FuzzPlanBatch drives the planner with arbitrary JSON spec lists:
// whatever decodes and plans must execute against a tiny service and
// return exactly one result per spec, under every method and at one
// to three step workers, without panicking.
func FuzzPlanBatch(f *testing.F) {
	for _, s := range []string{
		`[{"kind":"count"}]`,
		`[{"kind":"sum","attr":"enrollment"}]`,
		`[{"kind":"avg","attr":"rating","where":{"op":"tag_eq","tag":"open_sunday","equals":"yes"}}]`,
		`[{"kind":"count","where":{"op":"in_rect","rect":{"min_x":0,"min_y":0,"max_x":50,"max_y":50}}},{"kind":"avg","attr":"weight"}]`,
		`[{"kind":"count","where":{"op":"not","args":[{"op":"attr_cmp","attr":"weight","cmp":"ge","value":4}]}},{"kind":"count","label":"x"}]`,
	} {
		f.Add(s, uint8(0))
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data, err := json.Marshal([]AggSpec{randAggSpec(rng), randAggSpec(rng)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data), uint8(i))
	}
	methods := []string{MethodAuto, MethodLR, MethodLNR, MethodNNO}
	f.Fuzz(func(t *testing.T, data string, sel uint8) {
		var specs []AggSpec
		if json.Unmarshal([]byte(data), &specs) != nil {
			return
		}
		plan, err := PlanBatch(specs, PlanOptions{
			Method:      methods[int(sel)%len(methods)],
			Seed:        int64(sel),
			MaxSamples:  2,
			Parallelism: 1 + int(sel/4)%3,
		})
		if err != nil {
			return
		}
		svc, _ := smallService(t, 20, 2, 1)
		br, err := plan.Execute(context.Background(), svc, nil)
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if len(br.Results) != len(specs) {
			t.Fatalf("%s: %d results for %d specs", data, len(br.Results), len(specs))
		}
	})
}
