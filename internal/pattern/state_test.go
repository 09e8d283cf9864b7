package pattern

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"nbrallgather/internal/vgraph"
)

// randomCase draws the graph, stop threshold, policy and avoid set of
// one property-test case.
func randomCase(t *testing.T, seed int64) *builder {
	rng := rand.New(rand.NewSource(seed))
	var g *vgraph.Graph
	var err error
	if rng.Intn(4) == 0 {
		g, err = vgraph.Moore([]int{2 + rng.Intn(9), 2 + rng.Intn(9)}, 1+rng.Intn(2))
	} else {
		g, err = vgraph.ErdosRenyi(2+rng.Intn(120), 0.02+0.9*rng.Float64(), seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	b := &builder{g: g, n: g.N(), l: 1 + rng.Intn(8), policy: Policy(rng.Intn(2))}
	if rng.Intn(2) == 0 {
		b.avoid = make([]bool, g.N())
		for i := range b.avoid {
			b.avoid[i] = rng.Intn(5) == 0
		}
	}
	return b
}

// TestDeliveryListsAfterEveryLevel is the package comment's invariants
// 1 and 2 where they hold, not only where Validate can see them: after
// every level each graph edge is either already self-copied or in
// exactly one rank's delivery list, that rank's buffer holds the edge's
// source, no buffer holds a source twice, and every list ascends
// strictly.
func TestDeliveryListsAfterEveryLevel(t *testing.T) {
	f := func(seed int64) bool {
		b := randomCase(t, seed)
		b.init()
		for level := 0; ; level++ {
			owner := map[owed]int{}
			copied := 0
			for r := range b.states {
				st := &b.states[r]
				held := map[int32]bool{}
				for _, src := range st.buf {
					if held[src] {
						t.Logf("seed %d level %d: rank %d holds source %d twice", seed, level, r, src)
						return false
					}
					held[src] = true
				}
				for i, e := range st.del {
					if i > 0 && st.del[i-1] >= e {
						t.Logf("seed %d level %d: rank %d's list does not ascend at %d", seed, level, r, i)
						return false
					}
					if prev, dup := owner[e]; dup || !b.g.HasEdge(e.src(), e.dst()) || !held[int32(e.src())] {
						t.Logf("seed %d level %d: rank %d owes %d→%d (also owed by %d: %v, source held: %v)",
							seed, level, r, e.src(), e.dst(), prev, dup, held[int32(e.src())])
						return false
					}
					owner[e] = r
				}
				for _, s := range st.steps {
					copied += int(s.Copies.Len)
				}
			}
			if len(owner)+copied != b.g.Edges() {
				t.Logf("seed %d level %d: %d owed + %d copied for %d edges", seed, level, len(owner), copied, b.g.Edges())
				return false
			}
			if len(b.active) == 0 {
				return true
			}
			b.step()
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPreferredIsTheComparatorOrder: the distribution over the weights
// is the order the comparison sort it replaced gave — (w desc, p, a)
// under the load-aware policy, (p, a) under first fit — on random
// multisets of weights over ascending (p, a) pairs.
func TestPreferredIsTheComparatorOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []cand
		maxW := 1 + rng.Intn(40)
		for p, np := 0, rng.Intn(30); p < np; p++ {
			for a := 100; a < 130; a++ {
				if rng.Intn(3) == 0 {
					cands = append(cands, cand{int32(1 + rng.Intn(maxW)), int32(p), int32(a)})
				}
			}
		}
		for _, policy := range []Policy{PolicyLoadAware, PolicyFirstFit} {
			want := slices.Clone(cands)
			slices.SortFunc(want, func(x, y cand) int {
				if policy == PolicyLoadAware && x.w != y.w {
					return int(y.w - x.w)
				}
				if x.p != y.p {
					return int(x.p - y.p)
				}
				return int(x.a - y.a)
			})
			if got := (&builder{policy: policy}).preferred(cands); !slices.Equal(got, want) {
				t.Logf("seed %d policy %d: order differs", seed, policy)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// candidatesAscend checks candidates' contract on both halves of g's
// first split: each enumeration emits every proposer's acceptors in
// ascending order, and the two emit the same list.
func candidatesAscend(t *testing.T, g *vgraph.Graph, avoid []bool) bool {
	n, rows := g.N(), testRows(g)
	mid := Halves(0, n)
	for p := 0; p < n; p++ {
		alo, ahi := mid, n
		if p >= mid {
			alo, ahi = 0, mid
		}
		var lists [2][]cand
		for i, enum := range []int8{enumIntersect, enumCount} {
			b := &builder{g: g, n: n, avoid: avoid, enum: enum, rows: rows}
			count, _ := b.enumeration(p, alo, ahi, alo, ahi)
			lists[i] = b.candidates(nil, proposer{p, count}, alo, ahi, alo, ahi)
			if !slices.IsSortedFunc(lists[i], func(x, y cand) int { return int(x.a - y.a) }) {
				t.Logf("n=%d proposer %d: enumeration %d is not ascending: %v", n, p, enum, lists[i])
				return false
			}
		}
		if !slices.Equal(lists[0], lists[1]) {
			t.Logf("n=%d proposer %d: intersect %v, count %v", n, p, lists[0], lists[1])
			return false
		}
	}
	return true
}

// TestBuildAllocationBudget states the builder's memory as a count, not
// a timing: the 16 384-rank Moore grid (131 k edges, nine levels) builds
// within 100 MB of total allocation. With an n-bit set per (rank,
// source) it took 280 MB; delivery lists take about 25, most of it the
// steps, sized once because the level count is known up front.
func TestBuildAllocationBudget(t *testing.T) {
	g, err := vgraph.Moore([]int{128, 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Build(g, 32)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Build allocated %d MB, budget %d MB", got>>20, budget>>20)
	}
	runtime.KeepAlive(p)
}
