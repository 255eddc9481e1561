package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// runSmall runs a workload traced at a small scale with a fixed operation
// count, so everything but timer-driven counts repeats exactly.
func runSmall(t *testing.T, workload string, seed int64) *report {
	t.Helper()
	cfg := config{seed: seed, seconds: 1, trace: true, workDir: t.TempDir(), scale: 0.01, ops: 40}
	rep := newReport(workload, cfg)
	if err := workloads[workload](cfg, rep); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(rep.checks) > 0 || rep.fails > 0 {
		t.Fatalf("%s: %d failed operations, checks %q", workload, rep.fails, rep.checks)
	}
	return rep
}

// TestExactCountsRepeat runs the closed-loop workloads twice on one seed
// and requires the counts the engine computes deterministically, and every
// ranking, to be identical.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{
		"rstar.index_hits_per_query",
		"rstar.nodes_visited_per_query",
		"region.regions_per_image",
		"match.candidates_per_query",
		"match.pairs_per_query",
		"walrus.probe_yield",
		"workload.images",
		"workload.regions",
	}
	for _, w := range []string{"query-10k", "ingest-disk"} {
		a, b := runSmall(t, w, 7), runSmall(t, w, 7)
		for _, name := range exact {
			va, ok := a.values[name]
			if !ok || va == 0 {
				t.Errorf("%s: %s not measured", w, name)
			}
			if vb := b.values[name]; va != vb {
				t.Errorf("%s: %s differs across runs of one seed: %v vs %v", w, name, va, vb)
			}
		}
		if a.rankings.Sum64() != b.rankings.Sum64() {
			t.Errorf("%s: rankings differ across runs of one seed", w)
		}
	}
}

// TestServeMixedCorrect runs the open-loop workload at a small scale: the
// gate requires every search to find its image and every acknowledged
// ingest to survive drain and reopen.
func TestServeMixedCorrect(t *testing.T) {
	rep := runSmall(t, "serve-mixed", 7)
	if rep.values["workload.images"] == 0 || rep.values["max_rate_per_s"] == 0 {
		t.Errorf("serve-mixed measured nothing: %v", rep.values)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in this package
// and the repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	sort.Strings(names)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %d", names, len(workloads))
	}
}
