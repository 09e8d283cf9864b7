package planverify

import (
	"runtime"
	"testing"

	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

var benchFindings []Finding

// benchVerify times Verify alone, per algorithm: the plan is extracted
// once, outside the timer.
func benchVerify(b *testing.B, g *vgraph.Graph, c topology.Cluster) {
	counts := make([]int, g.N())
	for _, algo := range []string{"naive", "dh", "cn"} {
		s, err := Extract(algo, g, c, counts, nil, Params{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchFindings = s.Verify()
			}
			if len(benchFindings) != 0 {
				b.Fatalf("%s: %v", algo, benchFindings[0])
			}
		})
	}
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

// TestVerifyAllocationBudget states the verifier's memory as a count,
// not a timing: proving the naive plan of the 16 384-rank Moore grid
// (131 k messages) allocates at most 60 MB in total. The hash-map
// verifier took 269 MB; flat arrays over op numbers take 17.
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
