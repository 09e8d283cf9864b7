package collective

import (
	"reflect"
	"runtime"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// installCache swaps in a fresh plan cache for the test and restores
// whatever was installed before (nil in the normal suite).
func installCache(t *testing.T) *plancache.Cache {
	t.Helper()
	pc := plancache.New(plancache.Config{MaxBytes: 64 << 20})
	prev := UsePlanCache(pc)
	t.Cleanup(func() { UsePlanCache(prev) })
	return pc
}

func TestUsePlanCacheInstallRestore(t *testing.T) {
	if ActivePlanCache() != nil {
		t.Fatal("suite entered with a cache installed")
	}
	pc := plancache.New(plancache.Config{MaxBytes: 1 << 20})
	if prev := UsePlanCache(pc); prev != nil {
		t.Fatalf("previous cache = %v, want nil", prev)
	}
	if ActivePlanCache() != pc {
		t.Fatal("ActivePlanCache did not return the installed cache")
	}
	if prev := UsePlanCache(nil); prev != pc {
		t.Fatal("uninstall did not return the installed cache")
	}
	if ActivePlanCache() != nil {
		t.Fatal("cache still installed after uninstall")
	}
}

// TestCachedPlansDeepEqual: for every cached algorithm, the artifact a
// cold cache builds is structurally identical to an uncached
// negotiation, and a second construction is a hit returning the very
// same artifact.
func TestCachedPlansDeepEqual(t *testing.T) {
	g := erGraph(t, 24, 0.3, 9)
	c := topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 3}

	t.Run("dh", func(t *testing.T) {
		fresh, err := NewDistanceHalving(g, c.L())
		if err != nil {
			t.Fatal(err)
		}
		pc := installCache(t)
		first, err := NewDistanceHalving(g, c.L())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Plan(), first.Plan()) {
			t.Fatal("cached DH plan differs from fresh negotiation")
		}
		second, err := NewDistanceHalving(g, c.L())
		if err != nil {
			t.Fatal(err)
		}
		if second.Plan() != first.Plan() {
			t.Fatal("second construction did not reuse the cached plan")
		}
		if st := pc.Stats(); st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("stats = %+v, want one miss then a hit", st)
		}
	})

	t.Run("cn", func(t *testing.T) {
		fresh, err := NewCommonNeighbor(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		installCache(t)
		first, err := NewCommonNeighbor(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Plan(), first.Plan()) {
			t.Fatal("cached CN plan differs from fresh negotiation")
		}
		second, err := NewCommonNeighbor(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if second.Plan() != first.Plan() {
			t.Fatal("second construction did not reuse the cached plan")
		}
	})

	t.Run("leader", func(t *testing.T) {
		fresh, err := NewLeaderBasedK(g, c, 2)
		if err != nil {
			t.Fatal(err)
		}
		installCache(t)
		first, err := NewLeaderBasedK(g, c, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Plan(), first.Plan()) {
			t.Fatal("cached leader plan differs from fresh negotiation")
		}
		second, err := NewLeaderBasedK(g, c, 2)
		if err != nil {
			t.Fatal(err)
		}
		if second.Plan() != first.Plan() {
			t.Fatal("second construction did not reuse the cached plan")
		}
	})
}

// TestCachedTrafficBitIdentical: running an op whose plan came from the
// cache must move bit-for-bit identical traffic to the same op built
// fresh — on both execution engines. Message/byte counters are exactly
// deterministic (virtual times are not; see README), so the comparison
// pins the full structural footprint.
func TestCachedTrafficBitIdentical(t *testing.T) {
	g := erGraph(t, 16, 0.35, 21)
	c := topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 2}
	const m = 96

	build := func(t *testing.T) []Op {
		t.Helper()
		dh, err := NewDistanceHalving(g, c.L())
		if err != nil {
			t.Fatal(err)
		}
		cn, err := NewCommonNeighbor(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := NewLeaderBasedK(g, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		return []Op{dh, cn, lb}
	}

	freshOps := build(t)
	installCache(t)
	build(t) // populate the cache
	cachedOps := build(t)

	counters := func(rep *mpirt.Report) [][]int64 {
		return [][]int64{
			rep.MsgsByDist[:], rep.BytesByDist[:],
			{rep.MaxRankMsgs, rep.MaxRankBytes},
			rep.ResMsgs, rep.ResBytes,
		}
	}
	for _, engine := range mpirt.Engines() {
		for i := range freshOps {
			fresh, cached := freshOps[i], cachedOps[i]
			runOne := func(op Op) *mpirt.Report {
				rep, err := mpirt.Run(mpirt.Config{Cluster: c, Ranks: g.N(), Engine: engine}, func(p *mpirt.Proc) {
					r := p.Rank()
					sbuf := make([]byte, m)
					fillPattern(sbuf, r)
					rbuf := make([]byte, g.InDegree(r)*m)
					op.Run(p, sbuf, m, rbuf)
				})
				if err != nil {
					t.Fatalf("%s on %s engine: %v", op.Name(), engine, err)
				}
				return rep
			}
			fr, cr := runOne(fresh), runOne(cached)
			if !reflect.DeepEqual(counters(fr), counters(cr)) {
				t.Errorf("%s on %s engine: cached plan moved different traffic than fresh plan",
					fresh.Name(), engine)
			}
		}
	}
}

// TestRebuildFTRepairCaching: repeated identical recoveries — same
// survivor graph, same avoid set — reuse one negotiated repair plan,
// keyed under the avoid-set hash.
func TestRebuildFTRepairCaching(t *testing.T) {
	g := erGraph(t, 16, 0.35, 33)
	c := ftCluster()
	pc := installCache(t)

	dh, err := NewDistanceHalving(g, c.L())
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]int, 0, g.N()-1)
	for r := 0; r < g.N(); r++ {
		if r != 5 {
			alive = append(alive, r)
		}
	}
	g2, err := g.Project(alive)
	if err != nil {
		t.Fatal(err)
	}
	avoid := make([]bool, g2.N())
	avoid[2] = true

	before := pc.Stats()
	first := dh.rebuild(g2, alive, avoid)
	mid := pc.Stats()
	second := dh.rebuild(g2, alive, avoid)
	after := pc.Stats()

	if mid.Misses != before.Misses+1 {
		t.Fatalf("first repair: misses %d → %d, want one build", before.Misses, mid.Misses)
	}
	if after.Misses != mid.Misses {
		t.Fatalf("second identical repair negotiated again (misses %d → %d)", mid.Misses, after.Misses)
	}
	if after.Hits != mid.Hits+1 {
		t.Fatalf("second repair: hits %d → %d, want a cache hit", mid.Hits, after.Hits)
	}
	fp, ok1 := first.(*Allgather)
	sp, ok2 := second.(*Allgather)
	if !ok1 || !ok2 || fp.algo != dh.algo || sp.algo != dh.algo {
		t.Fatalf("repair degraded to %s / %s, want distance-halving", first.Name(), second.Name())
	}
	if fp.Plan() != sp.Plan() {
		t.Fatal("identical recoveries hold different plan instances")
	}
	// A different avoid set must key separately.
	avoid2 := make([]bool, g2.N())
	avoid2[3] = true
	dh.rebuild(g2, alive, avoid2)
	if st := pc.Stats(); st.Misses != after.Misses+1 {
		t.Fatal("distinct avoid set did not trigger a fresh negotiation")
	}
}

// TestPlanKeyDistinct: the service-level key separates everything that
// must not share a plan and nothing more.
func TestPlanKeyDistinct(t *testing.T) {
	g := erGraph(t, 16, 0.3, 4)
	h := erGraph(t, 16, 0.3, 5)
	c := topology.ForRanks(16, 4)
	avoid := make([]bool, 16)
	avoid[1] = true

	base := PlanKey("dh", g, c, 1024, 0, nil)
	distinct := []plancache.Key{
		PlanKey("cn", g, c, 1024, 0, nil),
		PlanKey("leader", g, c, 1024, 0, nil),
		PlanKey("naive", g, c, 1024, 0, nil),
		PlanKey("dh", h, c, 1024, 0, nil),
		PlanKey("dh", g, c, 1<<16, 0, nil),
		PlanKey("dh", g, c, 1024, 0, avoid),
		PlanKey("dh", g, c, 1024, c.L()+1, nil),
	}
	for i, k := range distinct {
		if k == base {
			t.Errorf("variant %d collides with the base key", i)
		}
	}
	if PlanKey("dh", g, c, 1024, 0, nil) != base {
		t.Error("identical inputs produced different keys")
	}
	// Param 0 resolves to the conformance default, so explicit-default
	// requests share the cache line.
	if PlanKey("dh", g, c, 1024, c.L(), nil) != base {
		t.Error("explicit default param does not share the default key")
	}
	// The in-process constructor key differs only by size class.
	ck := row("dh").cacheKey(planReq{g: g, prm: PlanParams{L: c.L(), Policy: pattern.PolicyLoadAware}})
	ck.Size = plancache.SizeClass(1024)
	if ck != base {
		t.Error("PlanKey(dh) does not align with the constructor key")
	}
}

// TestBuildPlanAlgos: BuildPlan negotiates every algorithm the service
// fronts and reports a positive resident cost.
func TestBuildPlanAlgos(t *testing.T) {
	g := erGraph(t, 16, 0.3, 4)
	c := topology.ForRanks(16, 4)
	for _, algo := range []string{"naive", "dh", "cn", "leader"} {
		v, cost, err := BuildPlan(algo, g, c, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if v == nil || cost <= 0 {
			t.Fatalf("%s: artifact %v cost %d", algo, v, cost)
		}
	}
	if _, _, err := BuildPlan("bogus", g, c, 0, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// plannerShape is the planner-zipf workload's graph and cluster: 64
// ranks, ER δ = 0.12, four ranks per socket.
func plannerShape(tb testing.TB) (*vgraph.Graph, topology.Cluster) {
	g, err := vgraph.ErdosRenyi(64, 0.12, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g, topology.ForRanks(64, 4)
}

// TestPlanBuildAllocs: plan construction allocates per build, not per
// rank or per send. Each ceiling names its layer: the DH negotiation
// and the CN delegate pass behind a planner cache miss, and the CN
// pattern plus its plan at the rsg540-lat shape. The CN ceilings sit
// less than one allocation per rank above what the builds take, so any
// per-rank allocation trips them.
func TestPlanBuildAllocs(t *testing.T) {
	g, c := plannerShape(t)
	g540 := erGraph(t, 540, 0.3, 1)
	for _, tc := range []struct {
		layer string
		ceil  float64
		build func() error
	}{
		{"BuildPlan(dh), 64 ranks", 120, func() error { _, _, err := BuildPlan("dh", g, c, 0, nil); return err }},
		{"BuildPlan(cn), 64 ranks", 64, func() error { _, _, err := BuildPlan("cn", g, c, 0, nil); return err }},
		{"NewCommonNeighbor, 540 ranks", 200, func() error { _, err := NewCommonNeighbor(g540, 4); return err }},
	} {
		var err error
		if got := testing.AllocsPerRun(3, func() { err = tc.build() }); err != nil {
			t.Fatalf("%s: %v", tc.layer, err)
		} else if got > tc.ceil {
			t.Errorf("%s: %.0f allocations per build, ceiling %.0f", tc.layer, got, tc.ceil)
		} else {
			t.Logf("%s: %.0f allocations per build", tc.layer, got)
		}
	}
}

// BenchmarkBuildCN is the Common Neighbor builder at the rsg540-lat
// shape: 540 ranks, ER δ = 0.3, K = 4.
func BenchmarkBuildCN(b *testing.B) {
	g, err := vgraph.ErdosRenyi(540, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCN(g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPlan is one planner cache miss per algorithm at the
// planner-zipf shape: negotiation plus plan emission.
func BenchmarkBuildPlan(b *testing.B) {
	g, c := plannerShape(b)
	for _, algo := range []string{"dh", "cn"} {
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := BuildPlan(algo, g, c, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rsg540Algos are the algorithms rsg540Plans emits, in its order.
var rsg540Algos = []string{"naive", "dh", "cn"}

// rsg540Plans emits the rsg540Algos plans of the rsg540-lat shape: 540
// ranks, ER δ = 0.3, 15 nodes of 18 ranks.
func rsg540Plans(tb testing.TB) []*Plan {
	g, err := vgraph.ErdosRenyi(540, 0.3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	plans := make([]*Plan, len(rsg540Algos))
	for i, algo := range rsg540Algos {
		if plans[i], err = Emit(algo, g, topology.Niagara(15, 18), PlanParams{}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return plans
}

// fresh returns pl with its static matching not yet derived: the plan a
// verify-on-insert or a first Measure sees.
func fresh(pl *Plan) *Plan {
	return &Plan{Graph: pl.Graph, ops: pl.ops, first: pl.first, arena: pl.arena, hold: pl.hold, edgeOff: pl.edgeOff}
}

// BenchmarkPlanSlots derives the static matching of a fresh rsg540-lat
// plan per algorithm: what every fresh plan's first pass, and its
// verification, pays.
func BenchmarkPlanSlots(b *testing.B) {
	plans := rsg540Plans(b)
	for k, algo := range rsg540Algos {
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pl := fresh(plans[k])
				b.StartTimer()
				if slot, _ := pl.Slots(); slot == nil {
					b.Fatalf("%s: no slot table", algo)
				}
			}
		})
	}
}

// TestPlanSlotsAllocs: deriving a fresh plan's static matching allocates
// a constant number of times, not per rank or per op — the table, the
// receive counts and one scratch array.
func TestPlanSlotsAllocs(t *testing.T) {
	const runs, ceil = 4, 6
	for k, pl := range rsg540Plans(t) {
		algo := rsg540Algos[k]
		plans := make([]*Plan, runs)
		for i := range plans {
			plans[i] = fresh(pl)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, pl := range plans {
			pl.Slots()
		}
		runtime.ReadMemStats(&after)
		if got := (after.Mallocs - before.Mallocs) / runs; got > ceil {
			t.Errorf("%s: Slots allocates %d times on a fresh 540-rank plan, ceiling %d", algo, got, ceil)
		} else {
			t.Logf("%s: %d allocations per derivation", algo, got)
		}
	}
}

// BenchmarkGraphFingerprint measures the canonical hash computed once
// per graph construction — the cost every cache key amortises.
func BenchmarkGraphFingerprint(b *testing.B) {
	g, err := vgraph.ErdosRenyi(128, 0.2, 7)
	if err != nil {
		b.Fatal(err)
	}
	out := make([][]int, g.N())
	for r := 0; r < g.N(); r++ {
		out[r] = g.Out(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vgraph.FromOutLists(g.N(), out); err != nil {
			b.Fatal(err)
		}
	}
}
