package planverify

import (
	"runtime"
	"testing"

	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

var benchFindings []Finding

// benchVerify times Verify alone, per algorithm, on a fresh plan each
// iteration — extracted outside the timer — so that Plan.Slots'
// derivation, which verify-on-insert pays on every plan it proves, is
// timed with it.
func benchVerify(b *testing.B, g *vgraph.Graph, c topology.Cluster) {
	counts := make([]int, g.N())
	for _, algo := range []string{"naive", "dh", "cn"} {
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := Extract(algo, g, c, counts, nil, Params{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				benchFindings = s.Verify()
			}
			if len(benchFindings) != 0 {
				b.Fatalf("%s: %v", algo, benchFindings[0])
			}
		})
	}
}

// BenchmarkVerifyPlanner64: the planner-zipf workload's plan shape, 64
// ranks, ER δ = 0.12, four ranks per socket — what its cache's
// verify-on-insert proves on every miss.
func BenchmarkVerifyPlanner64(b *testing.B) {
	g, err := vgraph.ErdosRenyi(64, 0.12, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchVerify(b, g, topology.ForRanks(64, 4))
}

// BenchmarkVerifyMoore10k: the 10 240-rank Moore grid of the
// moore10k-scale workload, whose set-up verifies all three plans.
func BenchmarkVerifyMoore10k(b *testing.B) {
	g, err := vgraph.Moore([]int{128, 80}, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchVerify(b, g, topology.Niagara(160, 32))
}

// BenchmarkVerifyER540: the 540-rank δ=0.3 random graph of the
// rsg540-lat workload — few ranks, 87 k edges.
func BenchmarkVerifyER540(b *testing.B) {
	g, err := vgraph.ErdosRenyi(540, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchVerify(b, g, topology.Niagara(15, 18))
}

// TestVerifyAllocs: proving the rsg540-lat naive plan — 87 k messages —
// allocates a constant number of times, not per rank or per op: the
// matching's arrays, the channel sort's two, the slot table's three,
// the stamps and the deadlock proof's program counters.
func TestVerifyAllocs(t *testing.T) {
	const runs, ceil = 3, 14
	g, err := vgraph.ErdosRenyi(540, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*Schedule
	for range runs {
		s, err := Extract("naive", g, topology.Niagara(15, 18), make([]int, g.N()), nil, Params{})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, s)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range plans {
		benchFindings = s.Verify()
	}
	runtime.ReadMemStats(&after)
	if len(benchFindings) != 0 {
		t.Fatal(benchFindings[0])
	}
	if got := (after.Mallocs - before.Mallocs) / runs; got > ceil {
		t.Errorf("Verify allocates %d times on the 540-rank naive plan, ceiling %d", got, ceil)
	} else {
		t.Logf("%d allocations per Verify", got)
	}
}

// TestVerifyAllocationBudget states the verifier's memory as a count,
// not a timing: proving the naive plan of the 16 384-rank Moore grid
// (131 k messages) allocates at most 60 MB in total. The hash-map
// verifier took 269 MB and flat arrays over op numbers 18; the linear
// passes take 16.6, the plan's slot table included.
func TestVerifyAllocationBudget(t *testing.T) {
	g, err := vgraph.Moore([]int{128, 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Extract("naive", g, topology.Niagara(256, 32), make([]int, g.N()), nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs := s.Verify()
	runtime.ReadMemStats(&after)
	if len(fs) != 0 {
		t.Fatal(fs[0])
	}
	const budget = 60 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Verify allocated %d MB, budget %d MB", got>>20, budget>>20)
	}
}
