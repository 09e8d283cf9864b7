package pattern

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nbrallgather/internal/bitset"
	"nbrallgather/internal/vgraph"
)

// testRows builds bit rows from Out for a graph that keeps none, so the
// intersect enumeration can run on it; nil for a graph with rows.
func testRows(g *vgraph.Graph) []*bitset.Set {
	if g.OutSet(0) != nil {
		return nil
	}
	rows := make([]*bitset.Set, g.N())
	for r := range rows {
		rows[r] = bitset.New(g.N())
		for _, v := range g.Out(r) {
			rows[r].Add(v)
		}
	}
	return rows
}

// buildForced builds with candidates pinned to one enumeration; the
// cost rule's choice (enum 0) runs as Build does, on the graph alone.
func buildForced(g *vgraph.Graph, l int, policy Policy, avoid []bool, enum int8) *Pattern {
	b := &builder{g: g, n: g.N(), l: l, policy: policy, avoid: avoid, enum: enum}
	if enum == enumIntersect {
		b.rows = testRows(g)
	}
	return b.build()
}

// enumerationsEquivalent reports whether every enumeration builds the
// intersect one's pattern on g, and candidates' contract holds.
func enumerationsEquivalent(t *testing.T, g *vgraph.Graph, l int, policy Policy, avoid []bool) bool {
	want := buildForced(g, l, policy, avoid, enumIntersect)
	for _, enum := range []int8{enumCount, 0} {
		got := buildForced(g, l, policy, avoid, enum)
		if got.Stats != want.Stats || !reflect.DeepEqual(got, want) {
			t.Logf("n=%d rows=%v l=%d policy=%d avoid=%v: enumeration %d differs from intersect", g.N(), g.OutSet(0) != nil, l, policy, avoid != nil, enum)
			return false
		}
	}
	return want.Validate() == nil && candidatesAscend(t, g, avoid)
}

// TestEnumerationsEquivalent: intersecting out-sets and counting over
// in-lists find the same candidates, so whichever the cost rule picks
// per proposer, the pattern is the same — over ER graphs from sparse to
// near-complete, Moore grids, both policies, with and without avoid
// sets, on graphs with bit rows and on graphs too sparse to keep them.
func TestEnumerationsEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *vgraph.Graph
		var err error
		if rng.Intn(4) == 0 {
			g, err = vgraph.Moore([]int{2 + rng.Intn(9), 2 + rng.Intn(9)}, 1+rng.Intn(2))
		} else {
			g, err = vgraph.ErdosRenyi(2+rng.Intn(150), 0.02+0.93*rng.Float64(), seed)
		}
		if err != nil {
			t.Log(err)
			return false
		}
		l := 1 + rng.Intn(8)
		policy := Policy(rng.Intn(2))
		var avoid []bool
		if rng.Intn(2) == 0 {
			avoid = make([]bool, g.N())
			for i := range avoid {
				avoid[i] = rng.Intn(5) == 0
			}
		}
		if !enumerationsEquivalent(t, g, l, policy, avoid) {
			t.Logf("seed %d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	// The draws above mostly keep rows; these are below the threshold.
	moore, err := vgraph.Moore([]int{24, 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := vgraph.ErdosRenyi(700, 0.012, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every rank talks to four hubs and the hubs to everyone: too
	// sparse for rows, yet the cost rule alone would intersect for the
	// proposers whose out-neighbors are the hubs.
	spokes := make([][]int, 1024)
	for v := range spokes {
		spokes[v] = append(spokes[v], (v+1)%len(spokes))
		for h := 0; h < 4; h++ {
			if v != h {
				spokes[v] = append(spokes[v], h)
				spokes[h] = append(spokes[h], v)
			}
		}
	}
	hubs, err := vgraph.FromOutLists(len(spokes), spokes)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*vgraph.Graph{moore, sparse, hubs} {
		if g.OutSet(0) != nil {
			t.Fatalf("n=%d, %d edges: graph keeps rows, want none", g.N(), g.Edges())
		}
		avoid := make([]bool, g.N())
		for i := range avoid {
			avoid[i] = i%5 == 0
		}
		for _, policy := range []Policy{PolicyLoadAware, PolicyFirstFit} {
			for _, av := range [][]bool{nil, avoid} {
				if !enumerationsEquivalent(t, g, 4, policy, av) {
					t.Fatal("row-less graph")
				}
			}
		}
	}
}

// TestEnumerationChoice: the cost rule sends a bounded-degree grid to
// counting and a dense graph to intersection at the first level, where
// the two differ most.
func TestEnumerationChoice(t *testing.T) {
	moore, err := vgraph.Moore([]int{32, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := vgraph.ErdosRenyi(540, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g     *vgraph.Graph
		count bool
	}{{moore, true}, {dense, false}} {
		n := tc.g.N()
		b := &builder{g: tc.g, n: n}
		mid := Halves(0, n)
		for p := 0; p < mid; p++ {
			if got, _ := b.enumeration(p, mid, n, mid, n); got != tc.count {
				t.Fatalf("n=%d proposer %d: counting chosen = %v, want %v", n, p, got, tc.count)
			}
		}
	}
}

var benchPattern *Pattern

func benchBuild(b *testing.B, g *vgraph.Graph, l int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Build(g, l)
		if err != nil {
			b.Fatal(err)
		}
		benchPattern = p
	}
}

// BenchmarkBuildMoore10k is the counting side of the enumeration
// choice: the 10 240-rank Moore grid of the moore10k-scale workload.
func BenchmarkBuildMoore10k(b *testing.B) {
	g, err := vgraph.Moore([]int{128, 80}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchBuild(b, g, 32)
}

// BenchmarkBuildER540 is the intersect side: the 540-rank δ=0.3 random
// graph of the rsg540-lat workload.
func BenchmarkBuildER540(b *testing.B) {
	g, err := vgraph.ErdosRenyi(540, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchBuild(b, g, 18)
}

// BenchmarkBuildPlanner64 is the planner-zipf shape: 64 ranks, ER
// δ = 0.12, L = 4 — the DH negotiation behind a planner cache miss.
func BenchmarkBuildPlanner64(b *testing.B) {
	g, err := vgraph.ErdosRenyi(64, 0.12, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchBuild(b, g, 4)
}
