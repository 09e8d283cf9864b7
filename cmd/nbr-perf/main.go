// Command nbr-perf is the repository's one benchmark. It runs four
// workloads — three simulation cells in different cost regimes and the
// planner service path — through the public functions of the layers
// (vgraph, topology, netmodel, pattern, collective, mpirt, plancache,
// planverify, perfmodel, harness), always on mpirt.EngineEvent set in
// the config, so every simulated number is a pure function of
// (workload, seed) and every host number is timed from outside.
//
//	go run ./cmd/nbr-perf -workload rsg540-lat -seed 1   # one workload, this process
//	go run ./cmd/nbr-perf -out a.json                    # all four, one child process each
//	go run ./cmd/nbr-perf -workload rsg540-lat -trace 1 -trace-out t.json
//	go run ./cmd/nbr-perf -compare a.json b.json
//
// With -workload the last line of standard output is the JSON object
// BENCHMARK.json's driver reads. README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/order"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "nbr-perf: %v\n", err)
		os.Exit(1)
	}
}

// environment is recorded with every result: host numbers only compare
// between runs whose environment matches.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Engine     string  `json:"engine"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Workers    int     `json:"workers"`
}

// document is the file -out writes and -compare reads.
type document struct {
	Schema    string             `json:"schema"`
	Env       environment        `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

const schema = "nbr-perf/1"

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nbr-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload in this process (default: all four, one child process each)")
	seed := fs.Int64("seed", 1, "seed of the input generators (ER graphs, Zipf streams, node-to-group allocation)")
	seconds := fs.Float64("seconds", 12, "measuring time per workload; each rep does fixed work, the reps fill the time")
	trace := fs.Int("trace", 0, "1 = the traced run: record spans and report the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1 and -workload: write the spans here as Chrome trace-event JSON")
	out := fs.String("out", "", "write the full result document (medians, quartiles, environment) to this file")
	scale := fs.String("scale", scaleFull, "full, or smoke for a seconds-long run at tens of ranks")
	workers := fs.Int("workers", min(2, runtime.NumCPU()), "closed-loop planner clients; may not exceed the CPU count")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments; exit 1 if any metric is worse")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files, got %d arguments", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, got %d", *trace)
	}
	doc := &document{Schema: schema, Workloads: map[string]*result{}, Env: environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Engine: string(mpirt.EngineEvent), Seed: *seed, Commit: commit(), Scale: *scale,
		Seconds: *seconds, Workers: *workers,
	}}
	fmt.Fprintf(stdout, "nbr-perf: nproc=%d GOMAXPROCS=%d %s engine=%s seed=%d commit=%s scale=%s seconds=%g workers=%d\n",
		doc.Env.NumCPU, doc.Env.GOMAXPROCS, doc.Env.GoVersion, doc.Env.Engine, *seed, doc.Env.Commit, *scale, *seconds, *workers)

	if *workload == "" {
		if *traceOut != "" {
			return fmt.Errorf("-trace-out needs -workload: one trace file holds one workload")
		}
		if err := runChildren(args, doc, stdout, stderr); err != nil {
			return err
		}
	} else {
		res, err := runWorkload(runConfig{workload: *workload, scale: *scale, seed: *seed, seconds: *seconds,
			workers: *workers, trace: *trace == 1, traceOut: *traceOut, stderr: stderr})
		if err != nil {
			return fmt.Errorf("%s: %w", *workload, err)
		}
		doc.Workloads[res.Workload] = res
	}

	for _, name := range workloadNames {
		res := doc.Workloads[name]
		if res == nil {
			continue
		}
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		fmt.Fprintf(stdout, "\n%s — %s\n%d reps, failed_share %d/%d\n", res.Workload, res.Why, res.Reps, res.Failed, res.Attempted)
		printValues(stdout, defs, res.Metrics)
		for _, name := range order.SortedKeys(res.SelfTimes) {
			fmt.Fprintf(stdout, "self time %-28s %.6f s\n", name, res.SelfTimes[name])
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if res := doc.Workloads[*workload]; res != nil {
		// The driver's contract: one workload, one JSON object, last.
		line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
			Metrics: make(map[string]driverMetric, len(res.Metrics))}
		for name, v := range res.Metrics {
			line.Metrics[name] = driverMetric{Value: v.Value, Unit: v.Unit}
		}
		last, err := json.Marshal(line)
		if err != nil {
			return fmt.Errorf("encode result line: %w", err)
		}
		fmt.Fprintf(stdout, "\n%s\n", last)
	}
	return nil
}

// runChildren runs each workload in a fresh child process of this
// binary, one after another and never concurrently, so setup_s and
// peak_rss_mb are per workload. The children's result documents come
// back through a temporary directory.
func runChildren(args []string, doc *document, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	dir, err := os.MkdirTemp("", "nbr-perf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, name := range workloadNames {
		file := filepath.Join(dir, name+".json")
		// Later flags win, so the child's -workload and -out override
		// whatever the parent was given.
		cmd := exec.Command(self, append(append([]string{}, args...), "-workload", name, "-out", file)...)
		cmd.Stdout, cmd.Stderr = io.Discard, stderr
		fmt.Fprintf(stdout, "running %s ...\n", name)
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		child, err := readDocument(file)
		if err != nil {
			return err
		}
		doc.Workloads[name] = child.Workloads[name]
	}
	return nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return &doc, nil
}

// commit is the revision the binary was built from, when the build
// recorded one (a checkout without .git has none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
