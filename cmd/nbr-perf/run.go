package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
)

// runConfig is one workload run in this process.
type runConfig struct {
	workload string
	scale    string
	seed     int64
	seconds  float64 // measuring time; the reps run until it is used up
	workers  int
	trace    bool
	traceOut string    // Chrome trace-event file, traced runs only
	stderr   io.Writer // each failed check is named here
}

// result is what one workload run reports.
type result struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	Traced    bool             `json:"traced"`
	Reps      int              `json:"reps"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// SelfTimes are the traced run's per-span-name self times (seconds).
	SelfTimes map[string]float64 `json:"self_times_s,omitempty"`
}

// setupState is what one set-up leaves for the timed reps.
type setupState struct {
	ref     []*[3]simCounts // per graph set: the numbers every later rep must repeat
	planner *planner
	gate    gate
	edges   int64         // of graph set 0
	stats   pattern.Stats // of graph set 0's DH patterns
}

// runWorkload sets the workload up (several times: setup_s is the
// median), runs timed reps for cfg.seconds, and returns every metric of
// the list that applies to the run: end-to-end when untraced, per-layer
// when traced.
func runWorkload(cfg runConfig) (*result, error) {
	s, err := newSpec(cfg.workload, cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.workers < 1 || cfg.workers > runtime.NumCPU() {
		return nil, fmt.Errorf("%d workers on %d CPUs: the load generator must not outnumber the processors", cfg.workers, runtime.NumCPU())
	}
	if collective.ActivePlanCache() != nil {
		return nil, errPlanCacheInstalled
	}
	res := &result{Workload: s.name, Why: s.why, Traced: cfg.trace}
	rec := newRecorder()
	fail := func(format string, args ...any) {
		fmt.Fprintf(cfg.stderr, "nbr-perf: %s: FAILED "+format+"\n", append([]any{s.name}, args...)...)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	root := tr.begin("workload")

	// Set-up: population, fill, correctness passes, warm-up rep.
	var st *setupState
	for i := 0; i < s.setups; i++ {
		st = nil
		runtime.GC()
		t0 := time.Now()
		if st, err = s.setup(cfg, tr, fail); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rec.sample("setup_s", time.Since(t0).Seconds())
	}
	res.Attempted += st.gate.checks
	res.Failed += st.gate.failed

	var probes map[string]float64
	if cfg.trace {
		id := tr.begin("layer_probes")
		probes, err = s.layerProbes(cfg, st, rec, tr)
		tr.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}

	// Timed reps. In a traced run every other rep records spans, and
	// the untraced ones give the reference for the tracing overhead.
	var tracedWall, plainWall []float64
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	hotBefore, churnBefore := st.planner.hot.Stats(), st.planner.churn.Stats()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	for rep := 0; rep < s.minReps || time.Since(began) < budget; rep++ {
		runtime.GC()
		traced := cfg.trace && rep%2 == 0
		if tr != nil {
			tr.paused, tr.rep = !traced, rep
		}
		repSpan := tr.begin("rep")
		set := rep % s.sets
		cell, err := s.runCell(set, tr, traced)
		res.Attempted += len(algos)
		if err != nil {
			// A rep that errors is a failed operation, not a crash:
			// the run goes on and reports it.
			res.Failed += len(algos)
			fail("rep %d: %v", rep, err)
			tr.end(repSpan, nil)
			continue
		}
		if st.ref[set] == nil {
			st.ref[set] = &cell.sim
		} else if *st.ref[set] != cell.sim {
			res.Failed += len(algos)
			fail("rep %d: simulated numbers differ from the first rep of graph set %d: %+v vs %+v", rep, set, cell.sim, *st.ref[set])
		}
		spawn, err := s.spawn(mpirt.EngineEvent, tr)
		if err != nil {
			return nil, err
		}
		hot := st.planner.tracePhase("planner.hot", st.planner.hot, s.hot, tr)
		churn := st.planner.tracePhase("planner.churn", st.planner.churn, s.churn, tr)
		tr.end(repSpan, nil)
		res.Attempted += s.hot + s.churn
		for _, ph := range []*phaseOut{&hot, &churn} {
			if ph.failed > 0 {
				res.Failed += ph.failed
				fail("rep %d: %d planner requests failed (%d refused as overload), first: %v", rep, ph.failed, ph.overloads, ph.firstErr)
			}
		}
		if traced {
			tracedWall = append(tracedWall, cell.wall.Seconds())
		} else {
			plainWall = append(plainWall, cell.wall.Seconds())
		}
		s.recordRep(rec, &cell, spawn, &hot, &churn, traced)
		res.Reps++
	}
	tr.end(root, nil)
	if res.Reps == 0 {
		return nil, fmt.Errorf("no repetition completed")
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		var gc1 runtime.MemStats
		runtime.ReadMemStats(&gc1)
		rec.exact("mpirt.gc_count", float64(gc1.NumGC-gc0.NumGC))
		s.recordLayers(rec, st, probes, hotBefore, churnBefore)
		overhead := 0.0
		if len(plainWall) > 0 {
			overhead = 100 * (median(tracedWall) - median(plainWall)) / median(plainWall)
		}
		rec.exact("trace.overhead_pct", overhead)
		rec.exact("trace.rep_coverage_pct", 100*tr.repCoverage())
		res.SelfTimes = map[string]float64{}
		for name, d := range tr.selfTimes() {
			res.SelfTimes[name] = d.Seconds()
		}
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	} else {
		s.recordSim(rec, st)
		rec.exact("peak_rss_mb", peakRSSMiB())
	}
	if res.Metrics, err = rec.values(defs); err != nil {
		return nil, err
	}
	return res, nil
}

// setup does everything that precedes the first timed rep.
func (s *spec) setup(cfg runConfig, tr *tracer, fail func(string, ...any)) (*setupState, error) {
	id := tr.begin("setup")
	defer func() { tr.end(id, nil) }()
	st := &setupState{ref: make([]*[3]simCounts, s.sets)}
	// Warm-up rep, untimed; its numbers are the reference for set 0.
	warm, err := s.runCell(0, tr, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	st.ref[0], st.edges, st.stats = &warm.sim, warm.edges, warm.stats
	if st.gate, err = s.verifyPlans(warm.sim, tr, fail); err != nil {
		return nil, err
	}
	if !s.phantom {
		checks, failed, err := s.checkPayloads(fail)
		if err != nil {
			return nil, err
		}
		st.gate.checks += checks
		st.gate.failed += failed
	}
	if st.planner, err = newPlanner(cfg.scale, s.hoods, cfg.workers, cfg.seed, tr); err != nil {
		return nil, err
	}
	if err := st.planner.startChurn(s.prewarm, tr); err != nil {
		return nil, err
	}
	return st, nil
}

// recordRep stores one rep's host samples.
func (s *spec) recordRep(rec *recorder, c *cellOut, spawn time.Duration, hot, churn *phaseOut, traced bool) {
	if !traced {
		// End-to-end host metrics come from reps that record no spans.
		var exec time.Duration
		for _, d := range c.exec {
			exec += d
		}
		rec.sample("cell_wall_s", c.wall.Seconds())
		rec.sample("sim_msgs_per_s", float64(c.delivered(s.trials))/exec.Seconds())
		rec.sample("plan_build_s", (c.patBuild + c.cnBuild).Seconds())
		rec.sample("plans_per_s", hot.plansPerSec())
		rec.sample("churn_plans_per_s", churn.plansPerSec())
		rec.sample("plan_p50_us", float64(percentile(hot.sorted, 0.50))/1e3)
		rec.sample("plan_p99_us", float64(percentile(churn.sorted, 0.99))/1e3)
	}
	rec.sample("vgraph.gen_s", c.gen.Seconds())
	rec.sample("pattern.build_s", c.patBuild.Seconds())
	rec.sample("collective.build_cn_s", c.cnBuild.Seconds())
	rec.sample("collective.exec_naive_s", c.exec[0].Seconds())
	rec.sample("collective.exec_dh_s", c.exec[1].Seconds())
	rec.sample("collective.exec_cn_s", c.exec[2].Seconds())
	rec.sample("mpirt.spawn_us_per_rank", float64(spawn.Microseconds())/float64(s.cluster.Ranks()))
	naiveMsgs := float64(c.sim[0].msgs * int64(s.trials))
	// Each graph of the set starts the runtime once for the naive run.
	rec.sample("mpirt.event_ns_per_msg", float64((c.exec[0]-time.Duration(s.graphsPerSet)*spawn).Nanoseconds())/naiveMsgs)
	if traced {
		rec.sample("mpirt.alloc_bytes_per_msg", float64(c.allocBytes)/naiveMsgs)
		rec.sample("mpirt.allocs_per_msg", float64(c.allocs)/naiveMsgs)
	}
	rec.sample("plancache.hit_rate_hot", hot.hitRate())
	rec.sample("plancache.hit_rate_churn", churn.hitRate())
}

// recordSim stores the simulated end-to-end metrics: the mean over the
// graph sets the reps visited of each set's (exactly repeating) numbers.
func (s *spec) recordSim(rec *recorder, st *setupState) {
	var vt [3]float64
	n := 0.0
	for _, ref := range st.ref {
		if ref == nil {
			continue
		}
		n++
		for a := range vt {
			vt[a] += ref[a].vt
		}
	}
	rec.exact("naive_vt_s", vt[0]/n)
	rec.exact("dh_vt_s", vt[1]/n)
	rec.exact("cn_vt_s", vt[2]/n)
	rec.exact("dh_speedup", vt[0]/vt[1])
}

// peakRSSMiB reads the process's peak resident set (VmHWM); where
// /proc is missing it falls back to the memory the Go runtime obtained
// from the system.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
