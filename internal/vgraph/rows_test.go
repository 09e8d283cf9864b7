package vgraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refGraph is the brute-force reference: an n×n adjacency matrix and
// the error FromOutLists must return for the same lists, if any.
func refGraph(n int, out [][]int) ([][]bool, error) {
	adj := make([][]bool, n)
	for u := range adj {
		adj[u] = make([]bool, n)
	}
	for u, lst := range out {
		for _, v := range lst {
			switch {
			case v < 0 || v >= n:
				return nil, fmt.Errorf("vgraph: rank %d lists out-neighbor %d outside [0,%d)", u, v, n)
			case v == u:
				return nil, fmt.Errorf("vgraph: rank %d lists itself as an out-neighbor", u)
			}
			adj[u][v] = true
		}
	}
	return adj, nil
}

// TestFromOutListsMatchesReference: on random lists — duplicates,
// any order, now and then an out-of-range neighbor or a self-loop —
// FromOutLists returns the reference's error, or a graph whose Out, In,
// HasEdge, bit rows and Fingerprint agree with the adjacency matrix.
// The densities straddle the row threshold, and both sides are checked.
func TestFromOutListsMatchesReference(t *testing.T) {
	var withRows, without int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		density := []float64{0.002, 0.01, 0.03, 0.3}[rng.Intn(4)]
		out := make([][]int, n)
		for u := range out {
			for v := 0; v < n; v++ {
				if v != u && rng.Float64() < density {
					out[u] = append(out[u], v)
					if rng.Intn(3) == 0 {
						out[u] = append(out[u], v)
					}
				}
			}
			rng.Shuffle(len(out[u]), func(i, j int) { out[u][i], out[u][j] = out[u][j], out[u][i] })
		}
		switch u := rng.Intn(n); rng.Intn(8) {
		case 0:
			out[u] = append(out[u], []int{-1, n, n + 7}[rng.Intn(3)])
		case 1:
			out[u] = append(out[u], u)
		}
		adj, wantErr := refGraph(n, out)
		g, err := FromOutLists(n, out)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: error %v, want %v", seed, err, wantErr)
		}
		if err != nil {
			continue
		}
		edges := 0
		var canon [][]int
		for u := 0; u < n; u++ {
			var outU, inU []int
			for v := 0; v < n; v++ {
				if adj[u][v] {
					outU = append(outU, v)
				}
				if adj[v][u] {
					inU = append(inU, v)
				}
				if g.HasEdge(u, v) != adj[u][v] {
					t.Fatalf("seed %d: HasEdge(%d, %d) = %v", seed, u, v, !adj[u][v])
				}
			}
			if !slices.Equal(g.Out(u), outU) || !slices.Equal(g.In(u), inU) {
				t.Fatalf("seed %d rank %d: Out %v In %v, want %v %v", seed, u, g.Out(u), g.In(u), outU, inU)
			}
			if g.HasEdge(u, -1) || g.HasEdge(u, n) || g.HasEdge(-1, u) || g.HasEdge(n, u) {
				t.Fatalf("seed %d: HasEdge true outside [0,%d)", seed, n)
			}
			edges += len(outU)
			canon = append(canon, outU)
		}
		if g.Fingerprint() != fingerprint(n, canon) {
			t.Fatalf("seed %d: fingerprint differs from the canonical lists'", seed)
		}
		if rows := g.OutSet(0) != nil; rows != (n*n <= 64*edges) {
			t.Fatalf("seed %d: n=%d, %d edges: rows = %v", seed, n, edges, rows)
		} else if rows {
			withRows++
			for u := 0; u < n; u++ {
				if got := g.OutSet(u).Elems(nil); !slices.Equal(got, canon[u]) {
					t.Fatalf("seed %d rank %d: row %v, Out %v", seed, u, got, canon[u])
				}
			}
		} else {
			without++
		}
	}
	if withRows < 50 || without < 50 {
		t.Fatalf("%d graphs with rows, %d without: the draw misses a side of the threshold", withRows, without)
	}
}

// TestMooreMatchesChebyshev: Moore's neighbors are exactly the other
// ranks within Chebyshev distance r on the torus, on grids whose
// extents are smaller than, equal to and larger than 2r+1.
func TestMooreMatchesChebyshev(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		dims := make([]int, 1+rng.Intn(3))
		for k := range dims {
			dims[k] = 1 + rng.Intn(7)
		}
		r := 1 + rng.Intn(3)
		g, err := Moore(dims, r)
		if err != nil {
			t.Fatal(err)
		}
		cu, cv := make([]int, len(dims)), make([]int, len(dims))
		for u := 0; u < g.N(); u++ {
			unflatten(u, dims, cu)
			var want []int
			for v := 0; v < g.N(); v++ {
				unflatten(v, dims, cv)
				near := v != u
				for k, d := range dims {
					dist := abs(cu[k] - cv[k])
					near = near && min(dist, d-dist) <= r
				}
				if near {
					want = append(want, v)
				}
			}
			if !slices.Equal(g.Out(u), want) {
				t.Fatalf("Moore(%v, %d) rank %d: %v, want %v", dims, r, u, g.Out(u), want)
			}
		}
	}
}

// TestMooreGraphIsLinear: a 10 240-rank Moore grid is built in O(E)
// bytes — its lists, a few hundred KiB each way — with no n-bit set
// per rank (those were 13 MB twice).
func TestMooreGraphIsLinear(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Moore([]int{128, 80}, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutSet(0) != nil {
		t.Fatal("a degree-8 grid of 10 240 ranks keeps bit rows")
	}
	const ceil = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > ceil {
		t.Fatalf("Moore at %d ranks, %d edges: %d bytes allocated, ceiling %d", g.N(), g.Edges(), got, ceil)
	} else {
		t.Logf("%d bytes for %d edges", got, g.Edges())
	}
}

// BenchmarkMooreGen10k builds the 10 240-rank Moore grid of the
// moore10k-scale workload; with -benchmem its B/op is the graph's
// whole footprint.
func BenchmarkMooreGen10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Moore([]int{128, 80}, 1); err != nil {
			b.Fatal(err)
		}
	}
}
