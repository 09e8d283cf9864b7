package collective

import (
	"fmt"
	"slices"
	"sync/atomic"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/vgraph"
)

// checkCounts validates caller-supplied counts, the O(n) half of the
// RunV contract. The uniform Run skips it (n² per collective): its
// counts are the op's own n copies of an m checkUniform found positive.
func checkCounts(g *vgraph.Graph, counts []int) {
	if len(counts) != g.N() {
		panic(fmt.Sprintf("collective: %d counts for %d ranks", len(counts), g.N()))
	}
	for r, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("collective: negative count %d for rank %d", c, r))
		}
	}
}

// checkArgs validates what every run checks, in O(degree): the
// communicator size and, in real mode, the calling rank's buffers
// against the blocks the plan's layout puts in them.
func (pl *Plan) checkArgs(p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte) {
	g := pl.Graph
	if p.Size() != g.N() {
		panic(fmt.Sprintf("collective: runtime has %d ranks, graph %d", p.Size(), g.N()))
	}
	if p.Phantom() {
		return
	}
	r := p.Rank()
	lo, hi := pl.Owned(r)
	want := 0
	for _, c := range counts[lo:hi] {
		want += c
	}
	if len(sbuf) != want {
		what := fmt.Sprintf("counts[%d]", r)
		if pl.Alltoall() {
			what = "Σ send counts"
		}
		panic(fmt.Sprintf("collective: rank %d sbuf length %d != %s %d", r, len(sbuf), what, want))
	}
	want = 0
	for _, u := range g.In(r) {
		want += counts[pl.InBlock(u, r)]
	}
	if len(rbuf) != want {
		panic(fmt.Sprintf("collective: rank %d rbuf length %d != Σ incoming counts %d", r, len(rbuf), want))
	}
}

// uniformCounts materialises the allgather special case.
func uniformCounts(n, m int) []int {
	return slices.Repeat([]int{m}, n)
}

// ucCache memoises one shared uniform-counts slice per op. Every
// rank's Run and AllgatherInit needs the same n-entry slice and
// the interpreter treats it as read-only, so the ranks share a single
// copy; without the cache the per-rank O(n) allocation dominates the
// whole run at mega scale (100k ranks × 100k entries ≈ 80 GB of
// churn). Racing first calls may each build a slice and the last
// store wins — the contents are identical either way, so sharing is
// a pure memory optimisation with no behavioural effect.
type ucCache struct {
	p atomic.Pointer[ucEntry]
}

type ucEntry struct {
	m      int
	counts []int
}

// get returns a shared counts slice of n entries all equal to m.
// Callers must not mutate it.
func (c *ucCache) get(n, m int) []int {
	if e := c.p.Load(); e != nil && e.m == m && len(e.counts) == n {
		return e.counts
	}
	e := &ucEntry{m: m, counts: uniformCounts(n, m)}
	c.p.Store(e)
	return e.counts
}

// uniformFor returns the counts of op's uniform allgather with message
// size m: the op's memoised shared slice when it keeps one.
func uniformFor(op Op, m int) []int {
	if u, ok := op.(interface{ uniform(m int) []int }); ok {
		return u.uniform(m)
	}
	return uniformCounts(op.Graph().N(), m)
}
