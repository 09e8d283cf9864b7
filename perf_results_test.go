package nbrallgather_test

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
		var doc perfDoc
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

// perfDoc is what the trajectory checks read of an nbr-perf document.
type perfDoc struct {
	Schema string `json:"schema"`
	Env    struct {
		NProc     int    `json:"nproc"`
		GoVersion string `json:"go_version"`
	} `json:"env"`
	Workloads map[string]struct {
		Traced  bool `json:"traced"`
		Metrics map[string]struct {
			Value  float64 `json:"value"`
			Kind   string  `json:"kind"`
			Better string  `json:"better"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// TestPerfTrajectoryPairs: every perf document after pr45.json comes as
// a pair, results/perf/pr<N>.json for the change and pr<N>.base.json for
// its parent's unmodified nbr-perf, the two run alternating on one host
// at one time — host rows only compare within such a pair. A pair
// shares env.nproc and env.go_version; the base runs the previous
// document's code, so its sim rows equal that document's (a gap in the
// numbering is logged, not failed); and each host row's ratio within
// its pair, and their product since the first pair, is logged (`go test
// -run Trajectory -v .`). pr41.json … pr45.json predate pairs and stay
// single documents.
func TestPerfTrajectoryPairs(t *testing.T) {
	singles := []int{41, 42, 43, 44, 45}
	files, err := filepath.Glob("results/perf/pr*.json")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`^pr(\d+)(\.base)?\.json$`)
	docs, bases := map[int]string{}, map[int]string{}
	for _, f := range files {
		m := re.FindStringSubmatch(filepath.Base(f))
		if m == nil {
			t.Errorf("%s: want pr<N>.json or pr<N>.base.json", f)
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if m[2] == "" {
			docs[n] = f
		} else {
			bases[n] = f
		}
	}
	for _, n := range singles {
		if docs[n] == "" || bases[n] != "" {
			t.Errorf("pr%d: want the single document pr%d.json and no base", n, n)
		}
	}
	for n, base := range bases {
		if docs[n] == "" {
			t.Errorf("%s: a base without its change document pr%d.json", base, n)
		}
	}
	nums := slices.Sorted(maps.Keys(docs))
	cumulative, since := map[string]float64{}, 0
	for i, n := range nums {
		if slices.Contains(singles, n) {
			continue
		}
		if bases[n] == "" {
			t.Errorf("%s: no paired base pr%d.base.json", docs[n], n)
			continue
		}
		var doc, base, prev perfDoc
		readJSON(t, docs[n], &doc)
		readJSON(t, bases[n], &base)
		if doc.Env.NProc != base.Env.NProc || doc.Env.GoVersion != base.Env.GoVersion {
			t.Errorf("pr%d: the pair ran on different hosts (nproc %d/%d, %s/%s)", n,
				doc.Env.NProc, base.Env.NProc, doc.Env.GoVersion, base.Env.GoVersion)
		}
		if i > 0 {
			readJSON(t, docs[nums[i-1]], &prev)
		}
		if since == 0 {
			since = n
		}
		for _, w := range slices.Sorted(maps.Keys(base.Workloads)) {
			for _, name := range slices.Sorted(maps.Keys(base.Workloads[w].Metrics)) {
				b, c := base.Workloads[w].Metrics[name], doc.Workloads[w].Metrics[name]
				if b.Kind == "sim" {
					// The base is the previous document's code; only a
					// PR without a document in between may move a row.
					switch p, ok := prev.Workloads[w].Metrics[name]; {
					case i == 0 || ok && p.Value == b.Value:
					case nums[i-1] == n-1:
						t.Errorf("pr%d base %s %s: sim row %v, pr%d.json has %v", n, w, name, b.Value, n-1, p.Value)
					default:
						t.Logf("pr%d base %s %s: sim row %v, pr%d.json has %v: a gap in the chain", n, w, name, b.Value, nums[i-1], p.Value)
					}
					continue
				}
				if b.Value != 0 {
					key := w + " " + name
					if _, ok := cumulative[key]; !ok {
						cumulative[key] = 1
					}
					cumulative[key] *= c.Value / b.Value
					t.Logf("pr%d %-15s %-18s base %-12.6g change %-12.6g ratio %.3f (%s is better)", n, w, name, b.Value, c.Value, c.Value/b.Value, b.Better)
				}
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(cumulative)) {
		t.Logf("pairs from pr%d on: %-34s ratio product %.3f", since, key, cumulative[key])
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
