package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	slices.Sort(e2e)
	slices.Sort(layers)
	return e2e, layers
}

// TestSmoke runs every workload for a couple of seconds, untraced and
// traced, and checks that each passes its own output checks and
// reports exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := declared(t)
	for _, name := range []string{"relay_paced", "relay_flood"} {
		for _, traced := range []bool{false, true} {
			rc := runConfig{workload: name, seed: 5, seconds: 2 * time.Second, trace: traced}
			if traced {
				rc.tr = newTracer()
			}
			rep, err := execute(rc)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if len(rep.failures) > 0 {
				t.Errorf("%s (traced %v): checks failed: %v", name, traced, rep.failures)
			}
			if rep.attempted < 1 {
				t.Errorf("%s (traced %v): nothing attempted", name, traced)
			}
			want, got := e2e, sortedKeys(rep.e2eM)
			if traced {
				want, got = layers, sortedKeys(rep.layerM)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s (traced %v): metrics %v, BENCHMARK.json declares %v", name, traced, got, want)
			}
		}
	}
}
