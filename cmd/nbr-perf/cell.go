package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/planverify"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The three algorithms every cell measures, in this order.
var algos = [3]string{"naive", "dh", "cn"}

// simCounts are the simulated numbers of one algorithm on one graph
// set: exact, so two runs of the same (workload, seed) compare with ==.
type simCounts struct {
	vt                             float64
	msgs, bytes, offSocket, maxMsg int64
}

func (a *simCounts) add(r harness.Result) {
	a.vt += r.Mean
	a.msgs += r.MsgsPerTrial
	a.bytes += r.BytesPerTrial
	a.offSocket += r.OffSocketMsgs
	if r.MaxRankMsgs > a.maxMsg {
		a.maxMsg = r.MaxRankMsgs
	}
}

// cellOut is one repetition of the cell: what a sweep user waits for.
type cellOut struct {
	wall, gen, patBuild, cnBuild time.Duration
	exec                         [3]time.Duration // harness.Measure wall per algorithm
	sim                          [3]simCounts
	edges                        int64
	stats                        pattern.Stats // agent searches summed, buffer growth maxed over the set
	allocBytes, allocs           uint64        // heap allocation during the naive measurements (memStats only)
}

func (o *cellOut) delivered(trials int) int64 {
	var n int64
	for _, s := range o.sim {
		n += s.msgs
	}
	return n * int64(trials)
}

func (s *spec) measureConfig() harness.Config {
	return harness.Config{Cluster: s.cluster, MsgSize: s.msg, Trials: s.trials, Phantom: s.phantom,
		Engine: mpirt.EngineEvent}
}

// buildPlans negotiates the DH and CN plans of g from scratch. It calls
// pattern.Build directly, which never consults a plan cache; the CN
// constructor would, so runWorkload refuses to start with one installed.
func (s *spec) buildPlans(g *vgraph.Graph, tr *tracer) (*pattern.Pattern, [3]collective.Op, time.Duration, time.Duration, error) {
	var ops [3]collective.Op
	id := tr.begin("pattern.build")
	t0 := time.Now()
	pat, err := pattern.Build(g, s.cluster.L())
	patBuild := time.Since(t0)
	tr.end(id, nil)
	if err != nil {
		return nil, ops, 0, 0, fmt.Errorf("pattern.Build: %w", err)
	}
	id = tr.begin("collective.build_cn")
	t0 = time.Now()
	cn, err := collective.NewCommonNeighbor(g, cnGroup)
	cnBuild := time.Since(t0)
	tr.end(id, nil)
	if err != nil {
		return nil, ops, 0, 0, fmt.Errorf("collective.NewCommonNeighbor: %w", err)
	}
	ops = [3]collective.Op{collective.NewNaive(g), collective.NewDistanceHalvingFromPattern(pat), cn}
	return pat, ops, patBuild, cnBuild, nil
}

// runCell is one repetition over graph set `set`: generate → build
// plans → measure all algorithms. memStats brackets the naive
// measurement with runtime.ReadMemStats (traced reps only: it stops
// the world).
func (s *spec) runCell(set int, tr *tracer, memStats bool) (cellOut, error) {
	var o cellOut
	cfg := s.measureConfig()
	start := time.Now()
	for j := 0; j < s.graphsPerSet; j++ {
		id := tr.begin("vgraph.gen")
		t0 := time.Now()
		g, err := s.graph(set*s.graphsPerSet + j)
		o.gen += time.Since(t0)
		tr.end(id, nil)
		if err != nil {
			return o, fmt.Errorf("generate graph: %w", err)
		}
		o.edges += int64(g.Edges())
		pat, ops, patBuild, cnBuild, err := s.buildPlans(g, tr)
		if err != nil {
			return o, err
		}
		o.patBuild += patBuild
		o.cnBuild += cnBuild
		o.stats.AgentAttempts += pat.Stats.AgentAttempts
		o.stats.AgentSuccesses += pat.Stats.AgentSuccesses
		if pat.Stats.MaxBufSources > o.stats.MaxBufSources {
			o.stats.MaxBufSources = pat.Stats.MaxBufSources
		}
		for a, op := range ops {
			var before, after runtime.MemStats
			if memStats && a == 0 {
				runtime.ReadMemStats(&before)
			}
			id := tr.begin("harness.measure." + algos[a])
			t0 := time.Now()
			res, err := harness.Measure(cfg, op)
			o.exec[a] += time.Since(t0)
			tr.end(id, nil)
			if err != nil {
				return o, fmt.Errorf("harness.Measure %s: %w", algos[a], err)
			}
			if memStats && a == 0 {
				runtime.ReadMemStats(&after)
				o.allocBytes += after.TotalAlloc - before.TotalAlloc
				o.allocs += after.Mallocs - before.Mallocs
			}
			o.sim[a].add(res)
		}
	}
	o.wall = time.Since(start)
	return o, nil
}

// spawn times an empty-body mpirt.Run on the workload's cluster: the
// per-rank start-up harness.Measure pays before its first message, which
// is opaque from outside Measure.
func (s *spec) spawn(engine mpirt.Engine, tr *tracer) (time.Duration, error) {
	id := tr.begin("mpirt.spawn")
	t0 := time.Now()
	_, err := mpirt.Run(mpirt.Config{Cluster: s.cluster, Phantom: true, Engine: engine}, func(*mpirt.Proc) {})
	d := time.Since(t0)
	tr.end(id, nil)
	if err != nil {
		return 0, fmt.Errorf("mpirt.Run (empty body): %w", err)
	}
	return d, nil
}

// gate is the outcome of the set-up correctness passes on graph set 0.
type gate struct {
	extract, verify time.Duration
	findings        int
	staticEqSim     bool
	checks, failed  int
}

// verifyPlans proves graph set 0's naive, DH and CN schedules with
// planverify and checks that the static message and byte counts equal
// the counters the simulation reported for the same set.
func (s *spec) verifyPlans(ref [3]simCounts, tr *tracer, fail func(string, ...any)) (gate, error) {
	gt := gate{staticEqSim: true}
	var static [3]simCounts
	for j := 0; j < s.graphsPerSet; j++ {
		g, err := s.graph(j)
		if err != nil {
			return gt, fmt.Errorf("generate graph: %w", err)
		}
		counts := make([]int, g.N())
		for i := range counts {
			counts[i] = s.msg
		}
		for a, algo := range algos {
			id := tr.begin("planverify.extract")
			t0 := time.Now()
			sched, err := planverify.Extract(algo, g, s.cluster, counts, nil, planverify.Params{CNGroup: cnGroup})
			gt.extract += time.Since(t0)
			tr.end(id, nil)
			if err != nil {
				return gt, fmt.Errorf("planverify.Extract %s: %w", algo, err)
			}
			id = tr.begin("planverify.verify")
			t0 = time.Now()
			findings := sched.Verify()
			gt.verify += time.Since(t0)
			tr.end(id, nil)
			gt.checks++
			if len(findings) > 0 {
				gt.findings += len(findings)
				gt.failed++
				fail("planverify: %s graph %d: %d findings, first: %s", algo, j, len(findings), findings[0])
			}
			load := sched.Load()
			static[a].msgs += load.Msgs()
			static[a].bytes += load.Bytes()
		}
	}
	for a, algo := range algos {
		gt.checks++
		if static[a].msgs != ref[a].msgs || static[a].bytes != ref[a].bytes {
			gt.staticEqSim = false
			gt.failed++
			fail("planverify: %s static load %d msgs / %d bytes, simulated %d / %d",
				algo, static[a].msgs, static[a].bytes, ref[a].msgs, ref[a].bytes)
		}
	}
	return gt, nil
}

// checkPayloads runs each algorithm once on graph set 0 with real
// payloads the benchmark owns and compares every rank's receive buffer
// byte for byte with the byte(src+i) fill, in in-neighbour order.
// harness.Measure keeps its buffers to itself, so this is the pass that
// proves the timed reps move the right bytes.
func (s *spec) checkPayloads(fail func(string, ...any)) (checks, failed int, err error) {
	for j := 0; j < s.graphsPerSet; j++ {
		g, err := s.graph(j)
		if err != nil {
			return checks, failed, fmt.Errorf("generate graph: %w", err)
		}
		_, ops, _, _, err := s.buildPlans(g, nil)
		if err != nil {
			return checks, failed, err
		}
		n, m := g.N(), s.msg
		sbufs := make([][]byte, n)
		for r := range sbufs {
			sbufs[r] = make([]byte, m)
			for i := range sbufs[r] {
				sbufs[r][i] = byte(r + i)
			}
		}
		for a, op := range ops {
			rbufs := make([][]byte, n)
			for r := range rbufs {
				rbufs[r] = make([]byte, g.InDegree(r)*m)
			}
			_, err := mpirt.Run(mpirt.Config{Cluster: s.cluster, Engine: mpirt.EngineEvent}, func(p *mpirt.Proc) {
				op.Run(p, sbufs[p.Rank()], m, rbufs[p.Rank()])
			})
			if err != nil {
				return checks, failed, fmt.Errorf("mpirt.Run %s: %w", algos[a], err)
			}
			checks++
			if bad := firstMismatch(g, m, rbufs); bad != "" {
				failed++
				fail("payload: %s graph %d: %s", algos[a], j, bad)
			}
		}
	}
	return checks, failed, nil
}

func firstMismatch(g *vgraph.Graph, m int, rbufs [][]byte) string {
	for r, rbuf := range rbufs {
		for k, src := range g.In(r) {
			for i := 0; i < m; i++ {
				if got, want := rbuf[k*m+i], byte(src+i); got != want {
					return fmt.Sprintf("rank %d block %d (from %d) byte %d = %d, want %d", r, k, src, i, got, want)
				}
			}
		}
	}
	return ""
}

// errPlanCacheInstalled guards the "fresh plans" premise of the cell.
var errPlanCacheInstalled = errors.New("a process-wide plan cache is installed; the cell must build fresh plans")

// fixedCellD005 measures the paper's δ=0.05 cell, where EXPERIMENTS.md
// records DH losing against the paper's ≈1.25×: a fixed reference point
// every traced run reports, on whichever workload it runs beside.
func fixedCellD005(scale string, seed int64) (float64, error) {
	s := spec{cluster: topology.Niagara(15, 18), msg: 1 << 10, trials: 3, phantom: true, graphsPerSet: 1}
	if scale == scaleSmoke {
		s.cluster = topology.Niagara(2, 6)
	}
	s.graph = erGraphs(s.cluster.Ranks(), 0.05, seed)
	o, err := s.runCell(0, nil, false)
	if err != nil {
		return 0, err
	}
	return o.sim[0].vt / o.sim[1].vt, nil
}
