package nbrallgather_test

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestPerfResultsMatchBenchmark: every committed benchmark document —
// results/perf/*.json, each the output of an unmodified
// `go run ./cmd/nbr-perf -out results/perf/<name>.json` — reads against
// BENCHMARK.json: schema nbr-perf/1, the host it ran on (host numbers
// only compare on the same host), every declared workload and no other,
// and on each untraced result exactly the declared end-to-end metrics.
func TestPerfResultsMatchBenchmark(t *testing.T) {
	type named []struct {
		Name string `json:"name"`
	}
	var bench struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &bench)
	names := func(ns named) []string {
		var s []string
		for _, n := range ns {
			s = append(s, n.Name)
		}
		return slices.Sorted(slices.Values(s))
	}
	workloads, metrics := names(bench.Workloads), names(bench.EndToEnd)

	files, err := filepath.Glob("results/perf/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no results/perf/*.json (%v): the perf trajectory has no document", err)
	}
	for _, f := range files {
		var doc struct {
			Schema string `json:"schema"`
			Env    struct {
				NProc     int    `json:"nproc"`
				GoVersion string `json:"go_version"`
			} `json:"env"`
			Workloads map[string]struct {
				Traced  bool                       `json:"traced"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			} `json:"workloads"`
		}
		readJSON(t, f, &doc)
		if doc.Schema != "nbr-perf/1" {
			t.Errorf("%s: schema %q, want nbr-perf/1", f, doc.Schema)
		}
		if doc.Env.NProc < 1 || doc.Env.GoVersion == "" {
			t.Errorf("%s: env records nproc %d, go_version %q: the host is unknown", f, doc.Env.NProc, doc.Env.GoVersion)
		}
		if got := slices.Sorted(maps.Keys(doc.Workloads)); !slices.Equal(got, workloads) {
			t.Errorf("%s: workloads %v, BENCHMARK.json declares %v", f, got, workloads)
		}
		for name, res := range doc.Workloads {
			if got := slices.Sorted(maps.Keys(res.Metrics)); !res.Traced && !slices.Equal(got, metrics) {
				t.Errorf("%s: %s carries metrics %v, BENCHMARK.json declares %v", f, name, got, metrics)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
