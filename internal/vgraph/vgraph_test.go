package vgraph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromOutListsBasics(t *testing.T) {
	g, err := FromOutLists(4, [][]int{{1, 2}, {2}, {}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.Edges() != 6 {
		t.Fatalf("N=%d Edges=%d", g.N(), g.Edges())
	}
	if got := g.In(2); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("In(2) = %v", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(2, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.OutDegree(3) != 3 || g.InDegree(2) != 3 || g.InDegree(3) != 0 || g.InDegree(0) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestFromOutListsDedupSort(t *testing.T) {
	g, err := FromOutLists(3, [][]int{{2, 1, 2, 1}, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	out := g.Out(0)
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("Out(0) = %v, want [1 2]", out)
	}
}

func TestFromOutListsRejects(t *testing.T) {
	if _, err := FromOutLists(0, nil); err == nil {
		t.Error("accepted empty graph")
	}
	if _, err := FromOutLists(2, [][]int{{0}, nil}); err == nil {
		t.Error("accepted self loop")
	}
	if _, err := FromOutLists(2, [][]int{{5}, nil}); err == nil {
		t.Error("accepted out-of-range neighbor")
	}
	if _, err := FromOutLists(3, [][]int{nil, nil}); err == nil {
		t.Error("accepted wrong list count")
	}
}

func TestInOutConsistency(t *testing.T) {
	f := func(nRaw uint8, dRaw uint8, seed int64) bool {
		n := 2 + int(nRaw)%50
		d := float64(dRaw%100) / 100
		g, err := ErdosRenyi(n, d, seed)
		if err != nil {
			return false
		}
		inEdges, outEdges := 0, 0
		for v := 0; v < n; v++ {
			inEdges += g.InDegree(v)
			outEdges += g.OutDegree(v)
			for _, u := range g.In(v) {
				if !g.HasEdge(u, v) {
					return false
				}
				if g.IndexOfIn(v, u) < 0 {
					return false
				}
			}
		}
		return inEdges == outEdges && outEdges == g.Edges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	n := 300
	for _, d := range []float64{0.05, 0.3, 0.7} {
		g, err := ErdosRenyi(n, d, 42)
		if err != nil {
			t.Fatal(err)
		}
		got := g.Density()
		if math.Abs(got-d) > 0.02 {
			t.Errorf("δ=%v produced density %v", d, got)
		}
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a, _ := ErdosRenyi(50, 0.3, 7)
	b, _ := ErdosRenyi(50, 0.3, 7)
	for v := 0; v < 50; v++ {
		ao, bo := a.Out(v), b.Out(v)
		if len(ao) != len(bo) {
			t.Fatal("same seed produced different graphs")
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatal("same seed produced different graphs")
			}
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	empty, err := ErdosRenyi(10, 0, 1)
	if err != nil || empty.Edges() != 0 {
		t.Fatalf("δ=0: %v edges=%d", err, empty.Edges())
	}
	full, err := ErdosRenyi(10, 1, 1)
	if err != nil || full.Edges() != 90 {
		t.Fatalf("δ=1: %v edges=%d", err, full.Edges())
	}
	if _, err := ErdosRenyi(10, 1.5, 1); err == nil {
		t.Error("accepted δ>1")
	}
}

func TestMooreNeighborCount(t *testing.T) {
	cases := []struct {
		dims []int
		r    int
		want int // (2r+1)^d − 1
	}{
		{[]int{8, 8}, 1, 8},
		{[]int{8, 8}, 2, 24},
		{[]int{16, 8}, 3, 48},
		{[]int{4, 4, 4}, 1, 26},
		{[]int{8, 4, 4}, 1, 26},
	}
	for _, tc := range cases {
		g, err := Moore(tc.dims, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if g.OutDegree(v) != tc.want {
				t.Fatalf("Moore(%v,r=%d): rank %d has %d neighbors, want %d",
					tc.dims, tc.r, v, g.OutDegree(v), tc.want)
			}
		}
	}
}

func TestMooreSymmetric(t *testing.T) {
	g, err := Moore([]int{6, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Out(v) {
			if !g.HasEdge(u, v) {
				t.Fatalf("Moore edge %d→%d not symmetric", v, u)
			}
		}
	}
}

func TestMooreSmallExtentWraps(t *testing.T) {
	// Extent 3 with r=2: the wrap makes every other cell a neighbor;
	// the count collapses to n−1 per row dimension without duplicates.
	g, err := Moore([]int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if g.OutDegree(v) != 2 {
			t.Fatalf("rank %d degree %d, want 2", v, g.OutDegree(v))
		}
	}
}

func TestMooreRejects(t *testing.T) {
	if _, err := Moore(nil, 1); err == nil {
		t.Error("accepted no dims")
	}
	if _, err := Moore([]int{4}, 0); err == nil {
		t.Error("accepted r=0")
	}
	if _, err := Moore([]int{0, 4}, 1); err == nil {
		t.Error("accepted zero extent")
	}
}

func TestMooreDims(t *testing.T) {
	cases := []struct {
		n, d int
		want []int
	}{
		{2048, 2, []int{64, 32}},
		{2048, 3, []int{16, 16, 8}},
		{64, 2, []int{8, 8}},
		{64, 3, []int{4, 4, 4}},
		{540, 2, []int{27, 20}},
	}
	for _, tc := range cases {
		got, err := MooreDims(tc.n, tc.d)
		if err != nil {
			t.Fatalf("MooreDims(%d,%d): %v", tc.n, tc.d, err)
		}
		prod := 1
		for _, x := range got {
			prod *= x
		}
		if prod != tc.n {
			t.Fatalf("MooreDims(%d,%d) = %v, product %d", tc.n, tc.d, got, prod)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("MooreDims(%d,%d) = %v", tc.n, tc.d, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Logf("MooreDims(%d,%d) = %v (expected %v — acceptable if product matches)", tc.n, tc.d, got, tc.want)
				break
			}
		}
	}
}

func TestIndexOfIn(t *testing.T) {
	g, _ := FromOutLists(4, [][]int{{3}, {3}, {3}, {}})
	for i, u := range []int{0, 1, 2} {
		if got := g.IndexOfIn(3, u); got != i {
			t.Fatalf("IndexOfIn(3,%d) = %d, want %d", u, got, i)
		}
	}
	if g.IndexOfIn(3, 3) != -1 {
		t.Fatal("IndexOfIn found non-edge")
	}
}

func TestStats(t *testing.T) {
	g, _ := FromOutLists(3, [][]int{{1, 2}, {2}, nil})
	if g.Density() != 3.0/6.0 {
		t.Fatalf("Density = %v", g.Density())
	}
	if g.AvgOutDegree() != 1 {
		t.Fatalf("AvgOutDegree = %v", g.AvgOutDegree())
	}
}

func TestCartesianDegrees(t *testing.T) {
	g, err := Cartesian([]int{4, 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(v) != 4 {
			t.Fatalf("periodic 2-D rank %d degree %d, want 4", v, g.OutDegree(v))
		}
	}
	open, err := Cartesian([]int{3, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	if open.OutDegree(4) != 4 { // center
		t.Fatalf("center degree %d", open.OutDegree(4))
	}
	if open.OutDegree(0) != 2 { // corner
		t.Fatalf("corner degree %d", open.OutDegree(0))
	}
	if open.OutDegree(1) != 3 { // edge
		t.Fatalf("edge degree %d", open.OutDegree(1))
	}
}

func TestCartesianSymmetricAndSubsetOfMoore(t *testing.T) {
	dims := []int{5, 4}
	cart, err := Cartesian(dims, true)
	if err != nil {
		t.Fatal(err)
	}
	moore, err := Moore(dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < cart.N(); v++ {
		for _, u := range cart.Out(v) {
			if !cart.HasEdge(u, v) {
				t.Fatalf("Cartesian edge %d→%d not symmetric", v, u)
			}
			if !moore.HasEdge(v, u) {
				t.Fatalf("Cartesian edge %d→%d not in Moore r=1", v, u)
			}
		}
	}
}

func TestCartesianTinyExtents(t *testing.T) {
	g, err := Cartesian([]int{2}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Extent 2 periodic: ±1 coincide, single neighbor.
	if g.OutDegree(0) != 1 || g.OutDegree(1) != 1 {
		t.Fatalf("degrees %d %d", g.OutDegree(0), g.OutDegree(1))
	}
	if _, err := Cartesian(nil, true); err == nil {
		t.Fatal("accepted empty dims")
	}
	if _, err := Cartesian([]int{0}, true); err == nil {
		t.Fatal("accepted zero extent")
	}
}
