package main

import (
	"fmt"
	"time"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/harness"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/perfmodel"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
)

// The per-layer probes of the traced run. Each is a timing of, or a
// count read from, a public call this command makes into one layer;
// layer = package name. They run once, between set-up and the timed
// reps, on the workload's own cluster and first graph.

// layerProbes returns the probes that are single readings; those with
// several samples go straight into rec.
func (s *spec) layerProbes(cfg runConfig, st *setupState, rec *recorder, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	id := tr.begin("probe.netmodel")
	next := func(name string) { tr.end(id, nil); id = tr.begin(name) }
	defer func() { tr.end(id, nil) }()
	iters := 100_000
	pairs := 1_000_000
	if cfg.scale == scaleSmoke {
		iters, pairs = 500, 10_000
	}
	g, err := s.graph(0)
	if err != nil {
		return nil, err
	}
	n := s.cluster.Ranks()

	// netmodel: construction, and charging over a fixed pair stream.
	var model *netmodel.Model
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if model, err = netmodel.New(s.cluster, netmodel.NiagaraParams()); err != nil {
			return nil, fmt.Errorf("netmodel.New: %w", err)
		}
		rec.sample("netmodel.new_us", float64(time.Since(t0).Nanoseconds())/1e3)
	}
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < pairs; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // fixed LCG: same pairs every run
		src, dst := int(x>>33)%n, int(x>>13)%n
		model.Transfer(src, dst, s.msg, 0)
	}
	out["netmodel.transfer_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(pairs)

	next("probe.pattern")
	// pattern: the repair path with one node's ranks avoided, and the
	// distributed negotiation's virtual cost (Fig. 8).
	avoid := make([]bool, n)
	for r := 0; r < s.cluster.RanksPerNode(); r++ {
		avoid[r] = true
	}
	t0 = time.Now()
	if _, err := pattern.BuildAvoiding(g, s.cluster.L(), pattern.PolicyLoadAware, avoid); err != nil {
		return nil, fmt.Errorf("pattern.BuildAvoiding: %w", err)
	}
	out["pattern.build_avoiding_s"] = time.Since(t0).Seconds()
	hg, err := s.heavyProbes.graph()
	if err != nil {
		return nil, err
	}
	_, rep, err := pattern.BuildDistributed(mpirt.Config{Cluster: s.heavyProbes.cluster, Phantom: true, Engine: mpirt.EngineEvent}, hg)
	if err != nil {
		return nil, fmt.Errorf("pattern.BuildDistributed: %w", err)
	}
	out["pattern.distributed_vt_s"] = rep.Time

	next("probe.collective")
	// collective: the builders the cell does not use.
	t0 = time.Now()
	if _, err := collective.NewCommonNeighborAffinity(hg, cnGroup); err != nil {
		return nil, fmt.Errorf("collective.NewCommonNeighborAffinity: %w", err)
	}
	out["collective.build_cn_affinity_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := collective.NewLeaderBased(g, s.cluster); err != nil {
		return nil, fmt.Errorf("collective.NewLeaderBased: %w", err)
	}
	out["collective.build_leader_s"] = time.Since(t0).Seconds()
	if out["collective.dh_speedup_d005"], err = fixedCellD005(cfg.scale, cfg.seed); err != nil {
		return nil, err
	}

	next("probe.mpirt")
	// mpirt: the same naive run on the threaded engine (virtual time
	// discarded: it depends on host scheduling there), and with real
	// payloads against phantom ones.
	naive := collective.NewNaive(g)
	mcfg := s.measureConfig()
	mcfg.Trials = 1
	run := func(engine mpirt.Engine, phantom bool) (time.Duration, harness.Result, error) {
		c := mcfg
		c.Engine, c.Phantom = engine, phantom
		t0 := time.Now()
		r, err := harness.Measure(c, naive)
		return time.Since(t0), r, err
	}
	spawnThreaded, err := s.spawn(mpirt.EngineThreaded, nil)
	if err != nil {
		return nil, err
	}
	threaded, r, err := run(mpirt.EngineThreaded, true)
	if err != nil {
		return nil, fmt.Errorf("harness.Measure (threaded): %w", err)
	}
	out["mpirt.threaded_ns_per_msg"] = float64((threaded - spawnThreaded).Nanoseconds()) / float64(r.MsgsPerTrial)
	phantom, _, err := run(mpirt.EngineEvent, true)
	if err != nil {
		return nil, fmt.Errorf("harness.Measure (phantom): %w", err)
	}
	withBytes, r, err := run(mpirt.EngineEvent, false)
	if err != nil {
		return nil, fmt.Errorf("harness.Measure (real payloads): %w", err)
	}
	out["mpirt.real_ns_per_byte"] = float64((withBytes - phantom).Nanoseconds()) / float64(r.BytesPerTrial)

	// mpirt: the nbr-bench -micro bodies at fixed iteration counts.
	for _, m := range []struct {
		name       string
		nodes, rps int
		unit       float64
		body       func(p *mpirt.Proc, iters int)
	}{
		{"mpirt.sendrecv_ns", 1, 2, 1, func(p *mpirt.Proc, iters int) { pingPong(p, iters, make([]byte, 64)) }},
		{"mpirt.match_indexed_ns", 1, 2, 1, matchIndexed},
		{"mpirt.match_wildcard_ns", 1, 2, 1, matchWildcard},
		{"mpirt.pool_roundtrip_ns", 1, 2, 1, func(p *mpirt.Proc, iters int) { pingPong(p, iters, make([]byte, 1500)) }},
		{"mpirt.barrier_us", 2, 4, 1e3, func(p *mpirt.Proc, iters int) {
			for i := 0; i < iters; i++ {
				p.Barrier()
			}
		}},
	} {
		t0 := time.Now()
		_, err := mpirt.Run(mpirt.Config{Cluster: topology.Niagara(m.nodes, m.rps), Engine: mpirt.EngineEvent},
			func(p *mpirt.Proc) { m.body(p, iters) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		out[m.name] = float64(time.Since(t0).Nanoseconds()) / float64(iters) / m.unit
	}

	next("probe.plancache")
	s.plancacheProbes(st.planner, iters, out, rec)
	return out, nil
}

// pingPong is the eager round trip between two ranks; with a payload
// above the inline size it cycles a pool buffer per message.
func pingPong(p *mpirt.Proc, iters int, payload []byte) {
	for i := 0; i < iters; i++ {
		switch p.Rank() {
		case 0:
			p.Send(1, tags.BenchPing, len(payload), payload, nil)
			m := p.Recv(1, tags.BenchPong)
			m.Release()
		case 1:
			m := p.Recv(0, tags.BenchPing)
			m.Release()
			p.Send(0, tags.BenchPong, len(payload), payload, nil)
		}
	}
}

// matchIndexed receives around a 64-message backlog parked on other
// (source, tag) match lists.
func matchIndexed(p *mpirt.Proc, iters int) {
	const backlog = 64
	switch p.Rank() {
	case 0:
		for t := 0; t < backlog; t++ {
			p.Send(1, tags.BenchParked+t, 8, nil, nil)
		}
		for i := 0; i < iters; i++ {
			p.Send(1, tags.BenchPing, 8, nil, nil)
			p.Recv(1, tags.BenchPong)
		}
	case 1:
		for i := 0; i < iters; i++ {
			p.Recv(0, tags.BenchPing)
			p.Send(0, tags.BenchPong, 8, nil, nil)
		}
	}
}

// matchWildcard is the AnySource/AnyTag scan path.
func matchWildcard(p *mpirt.Proc, iters int) {
	for i := 0; i < iters; i++ {
		rot := i % 7
		switch p.Rank() {
		case 0:
			p.Send(1, tags.BenchRotBase+rot, 8, nil, nil)
			p.Recv(1, tags.BenchPong)
		case 1:
			p.Recv(mpirt.AnySource, mpirt.AnyTag)
			p.Send(0, tags.BenchPong, 8, nil, nil)
		}
	}
}

// plancacheProbes times the hit path, key derivation and the miss path
// on the planner population.
func (s *spec) plancacheProbes(p *planner, iters int, out map[string]float64, rec *recorder) {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		p.hot.Get(p.loads[i%len(p.loads)].key)
	}
	out["plancache.get_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(iters)

	t0 = time.Now()
	for i := 0; i < iters; i++ {
		keySink = collective.PlanKey(plannerAlgos[i%2], p.graph0, p.cluster, plannerMsg, 0, nil)
	}
	out["plancache.key_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(iters)

	// Miss path: absent keys through a cache with no hook, and the bare
	// builders beside it.
	fresh := plancache.New(plancache.Config{MaxBytes: 256 << 20})
	k := len(p.loads)
	if k > 200 {
		k = 200
	}
	for i := 0; i < k; i++ {
		ld := &p.loads[i]
		t0 := time.Now()
		_, err := fresh.GetOrBuild(ld.key, ld.build)
		d := time.Since(t0)
		if err == nil {
			rec.sample("plancache.miss_build_us", float64(d.Nanoseconds())/1e3)
		}
		t0 = time.Now()
		_, _, err = ld.build()
		d = time.Since(t0)
		if err == nil {
			rec.sample("plancache.build_"+ld.key.Algo+"_us", float64(d.Nanoseconds())/1e3)
		}
	}
}

// keySink keeps the compiler from dropping the timed PlanKey calls.
var keySink plancache.Key

// recordLayers stores the per-layer metrics that are read once the
// reps are over: exact counters of graph set 0, set-up's planverify
// timings, cache counts over the timed phases, and the model comparison.
func (s *spec) recordLayers(rec *recorder, st *setupState, probes map[string]float64,
	hotBefore, churnBefore plancache.Stats) {
	for name, v := range probes {
		rec.exact(name, v)
	}
	ref := st.ref[0]
	rec.exact("collective.naive_msgs", float64(ref[0].msgs))
	rec.exact("collective.dh_msgs", float64(ref[1].msgs))
	rec.exact("collective.cn_msgs", float64(ref[2].msgs))
	rec.exact("collective.naive_bytes", float64(ref[0].bytes))
	rec.exact("collective.dh_bytes", float64(ref[1].bytes))
	rec.exact("collective.cn_bytes", float64(ref[2].bytes))
	rec.exact("collective.dh_offsocket_msgs", float64(ref[1].offSocket))
	rec.exact("collective.dh_max_rank_msgs", float64(ref[1].maxMsg))

	rec.exact("vgraph.edges", float64(st.edges))
	rec.exact("pattern.agent_success_rate", st.stats.SuccessRate())
	rec.exact("pattern.max_buf_sources", float64(st.stats.MaxBufSources))

	rec.exact("planverify.extract_s", st.gate.extract.Seconds())
	rec.exact("planverify.verify_s", st.gate.verify.Seconds())
	rec.exact("planverify.findings", float64(st.gate.findings))
	eq := 0.0
	if st.gate.staticEqSim {
		eq = 1
	}
	rec.exact("planverify.static_eq_sim", eq)

	// perfmodel: the in-repo reference the simulated speedup is held
	// against. No error figure against the paper is printed: the repo
	// holds only two approximate readings at 2 160 ranks, so at these
	// scales the model is reported as unvalidated.
	delta := float64(st.edges) / float64(s.graphsPerSet) / float64(s.cluster.Ranks()) / float64(s.cluster.Ranks()-1)
	pred := perfmodel.NiagaraModel(s.cluster.Ranks(), s.cluster.L()).Speedup(delta, s.msg)
	rec.exact("perfmodel.speedup_pred", pred)
	rec.exact("perfmodel.sim_over_model", ref[0].vt/ref[1].vt/pred)

	hot, churn := st.planner.hot.Stats(), st.planner.churn.Stats()
	var timed plancache.Stats
	timed.Misses = hot.Misses - hotBefore.Misses + churn.Misses - churnBefore.Misses
	timed.Coalesced = hot.Coalesced - hotBefore.Coalesced + churn.Coalesced - churnBefore.Coalesced
	rec.exact("plancache.coalescing_factor", timed.CoalescingFactor())
	rec.exact("plancache.builds", float64(timed.Misses))
	rec.exact("plancache.evictions", float64(churn.Evictions-churnBefore.Evictions))
	rec.exact("plancache.overloads", float64(hot.Overloads-hotBefore.Overloads+churn.Overloads-churnBefore.Overloads))
	rec.exact("plancache.resident_mb", float64(st.planner.resident)/(1<<20))
}
