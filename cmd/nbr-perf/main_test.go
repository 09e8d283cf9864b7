package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nbrallgather/internal/order"
	"nbrallgather/internal/plancache"
)

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesCommand holds BENCHMARK.json and the metric
// lists of this command together: same workloads, same names, units,
// directions and bounds, in the same order.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		s, err := newSpec(workloadNames[i], scaleFull, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
	}
	check := func(list string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", list, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the command %s %s %s",
					list, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s[%d] %s: bound in BENCHMARK.json does not match the command's %g", list, i, m.Name, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if want := []string{"cmd/nbr-perf"}; len(b.Paths) != 1 || b.Paths[0] != want[0] {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
}

func smoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	var stderr bytes.Buffer
	res, err := runWorkload(runConfig{workload: workload, scale: scaleSmoke, seed: 1, workers: 1,
		trace: trace, stderr: &stderr})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.Failed != 0 || stderr.Len() > 0 {
		t.Errorf("%s: %d of %d operations failed:\n%s", workload, res.Failed, res.Attempted, stderr.String())
	}
	return res
}

func wantMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", res.Workload, d.name)
		} else if v.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.name, v.Unit, d.unit)
		}
	}
}

// TestSmokeWorkloads runs all four workloads at smoke scale: exactly the
// listed metrics come out, with units, none of the end-to-end ones zero,
// and the simulated ones repeat exactly across two in-process runs.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		first, second := smoke(t, name, false), smoke(t, name, false)
		wantMetrics(t, first, endToEnd)
		for _, d := range endToEnd {
			a, b := first.Metrics[d.name], second.Metrics[d.name]
			if a.Value == 0 {
				t.Errorf("%s: %s is 0", name, d.name)
			}
			if d.kind == kindSim && a.Value != b.Value {
				t.Errorf("%s: simulated %s = %v, then %v", name, d.name, a.Value, b.Value)
			}
		}
		traced := smoke(t, name, true)
		wantMetrics(t, traced, perLayer)
		if traced.Metrics["planverify.static_eq_sim"].Value != 1 || traced.Metrics["planverify.findings"].Value != 0 {
			t.Errorf("%s: planverify gate: %+v", name, traced.Metrics)
		}
		for _, d := range perLayer {
			if d.kind == kindSim && strings.HasPrefix(d.name, "collective.") {
				if a, b := traced.Metrics[d.name], smoke(t, name, true).Metrics[d.name]; a.Value != b.Value {
					t.Errorf("%s: simulated %s = %v, then %v", name, d.name, a.Value, b.Value)
				}
				break
			}
		}
	}
}

// TestDriverLine checks the contract's last line through the CLI, with
// the double-dash flags the driver passes.
func TestDriverLine(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	for _, tc := range []struct {
		args []string
		defs []metricDef
	}{
		{[]string{"--trace", "0"}, endToEnd},
		{[]string{"--trace", "1", "-trace-out", trace}, perLayer},
	} {
		var stdout bytes.Buffer
		args := append([]string{"--workload", "rsg216-real", "--seed", "3", "--seconds", "0", "-scale", scaleSmoke, "-workers", "1"}, tc.args...)
		if err := run(args, &stdout, io.Discard); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(line) != 4 {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", order.SortedKeys(line))
		}
		var got driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != len(tc.defs) {
			t.Errorf("last line: correct=%v attempted=%d failed=%d, %d metrics (want %d)",
				got.Correct, got.Attempted, got.Failed, len(got.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if got.Metrics[d.name].Unit != d.unit {
				t.Errorf("last line: %s has unit %q, want %q", d.name, got.Metrics[d.name].Unit, d.unit)
			}
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range chrome.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"workload", "setup", "rep", "vgraph.gen", "pattern.build", "collective.build_cn",
		"planverify.extract", "planverify.verify", "mpirt.spawn", "harness.measure.naive", "harness.measure.dh",
		"harness.measure.cn", "planner.fill", "planner.hot", "planner.churn", "planner.request"} {
		if !names[want] {
			t.Errorf("trace file has no %q span", want)
		}
	}
}

func TestRefusesMoreWorkersThanCPUs(t *testing.T) {
	err := run([]string{"-workload", "planner-zipf", "-scale", scaleSmoke, "-workers", "100000"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("run with 100000 workers: %v, want a refusal", err)
	}
}

// TestOverloadIsFailedNotServed forces admission-control rejections —
// one planner slot, one queue place, eight clients, builds that hold the
// slot until a rejection has happened — and checks that they count as
// failed and stay out of the throughput and the latency samples.
func TestOverloadIsFailedNotServed(t *testing.T) {
	p, err := newPlanner(scaleSmoke, 8, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 1-byte budget caches nothing, so every request reaches the
	// admission control.
	cache := plancache.New(plancache.Config{MaxBytes: 1, MaxPlanners: 1, MaxQueue: 1})
	loads := make([]planLoad, len(p.loads))
	for i, ld := range p.loads {
		build := ld.build
		loads[i] = planLoad{key: ld.key, build: func() (any, int64, error) {
			for deadline := time.Now().Add(time.Second); cache.Stats().Overloads == 0 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			return build()
		}}
	}
	const requests = 400
	out := p.runLoads(cache, loads, 8, requests, nil)
	if out.overloads == 0 {
		t.Fatal("no request was refused")
	}
	if out.failed != out.overloads || !errors.Is(out.firstErr, plancache.ErrOverload) {
		t.Errorf("failed = %d, overloads = %d, first error %v", out.failed, out.overloads, out.firstErr)
	}
	if out.ok != requests-out.failed || len(out.sorted) != out.ok {
		t.Errorf("%d requests: %d ok, %d failed, %d latency samples", requests, out.ok, out.failed, len(out.sorted))
	}
	if got, want := out.plansPerSec(), float64(requests-out.failed)/out.wall.Seconds(); got != want {
		t.Errorf("plansPerSec = %v, want %v (successful requests only)", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
}

// TestCompare doctors a result: a 20 % slowdown of a tight host metric
// is worse, one within the bound is the same, a wide spread that
// overlaps is unresolved, and a simulated metric compares with ==.
func TestCompare(t *testing.T) {
	host := func(v float64) value {
		return value{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 10, Unit: "s", Kind: kindHost, Better: lower, Bound: 0.10}
	}
	sim := value{Value: 0.002, Q1: 0.002, Q3: 0.002, N: 1, Unit: "virtual_s", Kind: kindSim, Better: lower, Bound: 0.10}
	base := func() *document {
		return &document{Schema: schema, Env: environment{Seed: 1}, Workloads: map[string]*result{
			"rsg540-lat": {Workload: "rsg540-lat", Attempted: 10, Metrics: map[string]value{
				"cell_wall_s": host(1.2), "plan_build_s": host(0.15), "naive_vt_s": sim}},
		}}
	}
	dir := t.TempDir()
	write := func(name string, edit func(*document)) string {
		doc := base()
		edit(doc)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*document) {})
	for _, tc := range []struct {
		name    string
		edit    func(*document)
		verdict string
		worse   bool
	}{
		{"same", func(*document) {}, verdictSame, false},
		{"slowdown", func(d *document) { d.Workloads["rsg540-lat"].Metrics["cell_wall_s"] = host(1.2 * 1.2) }, verdictWorse, true},
		{"within-bound", func(d *document) { d.Workloads["rsg540-lat"].Metrics["cell_wall_s"] = host(1.2 * 1.05) }, verdictSame, false},
		{"speedup", func(d *document) { d.Workloads["rsg540-lat"].Metrics["cell_wall_s"] = host(1.2 * 0.7) }, verdictBetter, false},
		{"noisy", func(d *document) {
			v := host(1.2 * 1.2)
			v.Q1, v.Q3 = 1.0, 1.8
			d.Workloads["rsg540-lat"].Metrics["cell_wall_s"] = v
		}, verdictUnresolved, false},
		{"sim-moved", func(d *document) {
			v := sim
			v.Value *= 1.0001
			d.Workloads["rsg540-lat"].Metrics["naive_vt_s"] = v
		}, verdictWorse, true},
		{"failures", func(d *document) { d.Workloads["rsg540-lat"].Failed = 1 }, verdictWorse, true},
	} {
		var out bytes.Buffer
		err := compareFiles(a, write(tc.name+".json", tc.edit), &out)
		if tc.worse != errors.Is(err, errWorse) {
			t.Errorf("%s: error %v, want worse=%v", tc.name, err, tc.worse)
		}
		if tc.verdict != verdictSame && !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q row in\n%s", tc.name, tc.verdict, out.String())
		}
		if tc.verdict == verdictSame && strings.Contains(out.String(), verdictWorse) {
			t.Errorf("%s: unexpected worse row in\n%s", tc.name, out.String())
		}
	}
	// The CLI form exits non-zero on a worse row.
	slow := filepath.Join(dir, "slowdown.json")
	if err := run([]string{"-compare", a, slow}, io.Discard, io.Discard); !errors.Is(err, errWorse) {
		t.Errorf("-compare a slowdown: %v", err)
	}
}
