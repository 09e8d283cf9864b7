package collective

import (
	"reflect"
	"runtime"
	"testing"

	"nbrallgather/internal/pattern"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// TestCachedPlansDeepEqual: the planner service's path — PlanKey keys,
// BuildPlan builds, GetOrBuild caches — serves the plan BuildPlan
// builds, and a second request in the same size class is a hit on the
// very same artifact.
func TestCachedPlansDeepEqual(t *testing.T) {
	g := erGraph(t, 24, 0.3, 9)
	c := topology.Cluster{Nodes: 3, SocketsPerNode: 2, RanksPerSocket: 4, NodesPerGroup: 3}
	for _, algo := range []string{"dh", "cn", "leader"} {
		t.Run(algo, func(t *testing.T) {
			pc := plancache.New(plancache.Config{MaxBytes: 64 << 20})
			build := func() (any, int64, error) { return BuildPlan(algo, g, c, 0, nil) }
			first, err := pc.GetOrBuild(PlanKey(algo, g, c, 1000, 0, nil), build)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, first) {
				t.Fatalf("cached %s plan differs from a fresh build", algo)
			}
			second, err := pc.GetOrBuild(PlanKey(algo, g, c, 1024, 0, nil), build)
			if err != nil {
				t.Fatal(err)
			}
			if second != first {
				t.Fatal("second request in the size class did not reuse the cached plan")
			}
			if st := pc.Stats(); st.Hits != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want one miss then a hit", st)
			}
		})
	}
}

// TestRebuildFTRepairDeterministic: two identical recoveries — same
// survivor graph, same avoid set — re-emit equal plans and keep the
// distance-halving row, and a different avoid set re-emits another.
func TestRebuildFTRepairDeterministic(t *testing.T) {
	g := erGraph(t, 16, 0.35, 33)
	c := ftCluster()

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

	first, ok1 := dh.rebuild(g2, alive, avoid).(*Allgather)
	second, ok2 := dh.rebuild(g2, alive, avoid).(*Allgather)
	if !ok1 || !ok2 || first.algo != dh.algo || second.algo != dh.algo {
		t.Fatal("repair degraded from distance-halving")
	}
	if !reflect.DeepEqual(first.Plan(), second.Plan()) {
		t.Fatal("identical recoveries emitted different plans")
	}
	avoid2 := make([]bool, g2.N())
	avoid2[3] = true
	if reflect.DeepEqual(first.Plan(), dh.rebuild(g2, alive, avoid2).(*Allgather).Plan()) {
		t.Fatal("a different avoid set emitted the same plan")
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
}

// TestBuildPlanAlgos: BuildPlan negotiates every algorithm the service
// fronts, reports a positive resident cost, and builds exactly the plan
// the matching constructor's op runs at the defaults.
func TestBuildPlanAlgos(t *testing.T) {
	g := erGraph(t, 16, 0.3, 4)
	c := topology.ForRanks(16, 4)
	ctor := map[string]func() (*Allgather, error){
		"naive":  func() (*Allgather, error) { return NewNaive(g), nil },
		"dh":     func() (*Allgather, error) { return NewDistanceHalving(g, c.L()) },
		"cn":     func() (*Allgather, error) { return NewCommonNeighbor(g, 3) },
		"leader": func() (*Allgather, error) { return NewLeaderBased(g, c) },
	}
	for _, algo := range []string{"naive", "dh", "cn", "leader"} {
		t.Run(algo, func(t *testing.T) {
			v, cost, err := BuildPlan(algo, g, c, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil || cost <= 0 {
				t.Fatalf("artifact %v cost %d", v, cost)
			}
			op, err := ctor[algo]()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(v, op.Plan()) {
				t.Fatal("BuildPlan differs from the constructor's plan")
			}
		})
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
// rank or per send, and a planner-sized DH build reuses its builder's
// pooled scratch. Each ceiling names its layer: the DH negotiation and
// the CN delegate pass behind a planner cache miss, and the CN plan at
// the rsg540-lat shape, in allocations (the most either GOMAXPROCS
// setting takes, so any new allocation trips them; a split build's
// helper goroutine is fresh or reused as the scheduler has it); the DH
// pattern of the moore10k-scale grid, whose scratch is not pooled, in
// bytes. Under the race detector sync.Pool drops what it is given at
// random, so there the pooled build's ceiling is a cold build's.
func TestPlanBuildAllocs(t *testing.T) {
	g, c := plannerShape(t)
	g540 := erGraph(t, 540, 0.3, 1)
	for _, tc := range []struct {
		layer      string
		ceil, race float64
		build      func() error
	}{
		{"BuildPlan(dh), 64 ranks", 35, 110, func() error { _, _, err := BuildPlan("dh", g, c, 0, nil); return err }},
		{"BuildPlan(cn), 64 ranks", 16, 16, func() error { _, _, err := BuildPlan("cn", g, c, 0, nil); return err }},
		{"NewCommonNeighbor, 540 ranks", 21, 21, func() error { _, err := NewCommonNeighbor(g540, 4); return err }},
	} {
		if raceDetector {
			tc.ceil = tc.race
		}
		var err error
		if got := testing.AllocsPerRun(3, func() { err = tc.build() }); err != nil {
			t.Fatalf("%s: %v", tc.layer, err)
		} else if got > tc.ceil {
			t.Errorf("%s: %.0f allocations per build, ceiling %.0f", tc.layer, got, tc.ceil)
		} else {
			t.Logf("%s: %.0f allocations per build", tc.layer, got)
		}
	}
	dims, err := vgraph.MooreDims(10240, 2)
	if err != nil {
		t.Fatal(err)
	}
	moore, err := vgraph.Moore(dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	const ceil = 10 << 20
	var before, after runtime.MemStats
	for i := range 2 { // the second build is the measured one
		runtime.ReadMemStats(&before)
		if _, err := pattern.Build(moore, 32); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 1 && got > ceil {
			t.Errorf("pattern.Build, 10 240-rank Moore: %d bytes per build, ceiling %d", got, ceil)
		} else if i == 1 {
			t.Logf("pattern.Build, 10 240-rank Moore: %d bytes per build", got)
		}
	}
}

// BenchmarkBuildCN is the Common Neighbor collective at the rsg540-lat
// shape — 540 ranks, ER δ = 0.3, K = 4 — built as the workload's
// plan_build_s times it: the delegate pass plus the plan's emission.
func BenchmarkBuildCN(b *testing.B) {
	g, err := vgraph.ErdosRenyi(540, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCommonNeighbor(g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCNMoore10k is the Common Neighbor build of the
// moore10k-scale workload: the 10 240-rank Moore grid, K = 4, the
// shape whose group pass and emission split across two workers.
func BenchmarkBuildCNMoore10k(b *testing.B) {
	dims, err := vgraph.MooreDims(10240, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := vgraph.Moore(dims, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCommonNeighbor(g, 4); err != nil {
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
		op, err := New(algo, g, topology.Niagara(15, 18), PlanParams{}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		plans[i] = op.Plan()
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
