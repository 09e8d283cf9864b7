package pattern

import (
	"slices"

	"nbrallgather/internal/vgraph"
)

// owed is one outstanding delivery — src's payload must still reach dst
// — packed dst<<32 | src, so integer order is (dst, src) order.
type owed uint64

func owe(dst, src int) owed { return owed(dst)<<32 | owed(src) }

func (e owed) dst() int { return int(e >> 32) }
func (e owed) src() int { return int(uint32(e)) }

// rankState is what one rank knows while the pattern is negotiated;
// both builders keep exactly this and move it with the same three
// methods: offload (what leaves with the buffer for the agent), onload
// (what arrives from the origin) and final (what is left when halving
// stops).
type rankState struct {
	rank  int
	steps []Step
	// buf is the ordered source list of the rank's main buffer. A source
	// never arrives twice: its holders sit in different blocks of every
	// level (one to begin with; a level adds at most the one agent of a
	// block's holder, in the sibling block), and an origin and its agent
	// share the parent block.
	buf []int32
	// del lists the deliveries this rank is responsible for, ascending:
	// grouped by destination, sources ascending within one. A level
	// concerns one run of it, found by binary search.
	del []owed
	// copies lists the steps' self-copies in step order, at most one per
	// in-edge: a step's Copies indexes it until final moves it to the
	// arena.
	copies []int32
}

// newRankState is rank r before the first level: its own payload, owed
// to each of its out-neighbors, and room for the levels to come. buf
// (one entry), del (OutDegree(r) entries) and copies (room for
// InDegree(r)) are its storage, capped so that growing any of them
// reallocates rather than overruns a neighbor's.
func newRankState(g *vgraph.Graph, r int, steps []Step, buf []int32, del []owed, copies []int32) rankState {
	buf[0] = int32(r)
	for i, d := range g.Out(r) {
		del[i] = owe(d, r)
	}
	return rankState{rank: r, steps: steps, buf: buf, del: del, copies: copies}
}

// levels bounds the halving steps of any rank: how often n halves,
// rounding up, before it is at most l.
func levels(n, l int) int {
	k := 0
	for ; n > l; n = Halves(0, n) {
		k++
	}
	return k
}

// run returns the bounds within the ascending list of the deliveries
// into [lo, hi).
func run(list []owed, lo, hi int) (i, j int) {
	i, _ = slices.BinarySearch(list, owe(lo, 0))
	j, _ = slices.BinarySearch(list[i:], owe(hi, 0))
	return i, i + j
}

// wantsAgent reports whether the rank has any outstanding delivery into
// [lo, hi) — its own remaining out-neighbors there or inherited origin
// deliveries. Deliveries to avoided destinations don't count: they are
// pinned to their original source and cannot be offloaded.
func (st *rankState) wantsAgent(lo, hi int, avoid []bool) bool {
	i, j := run(st.del, lo, hi)
	return slices.ContainsFunc(st.del[i:j], func(e owed) bool { return avoid == nil || !avoid[e.dst()] })
}

// offload cuts the deliveries into [lo, hi) out of the list and appends
// them to moved: the descriptor D that travels with the buffer.
// Deliveries to avoided destinations stay with the current holder
// (inductively the original source), so they surface as direct final
// sends along graph edges.
func (st *rankState) offload(lo, hi int, avoid []bool, moved []owed) []owed {
	i, j := run(st.del, lo, hi)
	kept := i
	for _, e := range st.del[i:j] {
		if avoid != nil && avoid[e.dst()] {
			st.del[kept] = e
			kept++
		} else {
			moved = append(moved, e)
		}
	}
	st.del = append(st.del[:kept], st.del[j:]...)
	return moved
}

// onload is the agent's side of step s: the origin's buffer content
// joins the rank's own, and the origin's descriptor is merged into the
// delivery list — except the deliveries to this rank itself, which a
// local copy satisfies the moment the payload arrives: those join the
// rank's self-copies.
func (st *rankState) onload(s *Step, sources []int32, moved []owed) {
	s.Recv = Run{int32(len(st.buf)), int32(len(sources))}
	st.buf = append(st.buf, sources...)
	// The deliveries to this rank are one run of moved, sources ascending.
	i, j := run(moved, st.rank, st.rank+1)
	if i < j {
		s.Copies = Run{int32(len(st.copies)), int32(j - i)}
		for _, e := range moved[i:j] {
			st.copies = append(st.copies, int32(e.src()))
		}
	}
	// Merge the rest in from the back, in place: what lies above the
	// self-copies first, then what lies below them. The compare picks the
	// value and which index moves; the data drives no branch.
	old := len(st.del)
	st.del = slices.Grow(st.del, len(moved)-(j-i))[:old+len(moved)-(j-i)]
	del, w, a := st.del, len(st.del)-1, old-1
	for _, part := range [2][]owed{moved[j:], moved[:i]} {
		q := len(part) - 1
		for ; q >= 0 && a >= 0; w-- {
			x, y := del[a], part[q]
			v, fromDel := y, 0
			if x > y {
				v, fromDel = x, 1
			}
			del[w] = v
			a, q = a-fromDel, q-1+fromDel
		}
		w -= copy(del[w-q:w+1], part[:q+1]) // what is left lies below
	}
}

// final turns what the rank still owes when halving stops into its
// remainder phase, laid out in src: the buffer, the self-copies, the
// final sources (len(del) entries), then whatever room is left, which is
// FinalRecvs for the caller to fill. sends has room for sendCount
// FinalSends. The list is already grouped by destination with sources
// ascending, so one walk emits FinalSends in destination order.
func (st *rankState) final(src []int32, sends []FinalSend) RankPlan {
	nb, at := int32(len(st.buf)), int32(len(st.buf)+len(st.copies))
	copy(src[copy(src, st.buf):], st.copies)
	for i := range st.steps {
		if st.steps[i].Copies.Len > 0 {
			st.steps[i].Copies.Off += nb
		}
	}
	plan := RankPlan{Rank: st.rank, Steps: st.steps, BufSources: Run{0, nb}, Src: src}
	if end := at + int32(len(st.del)); int(end) < len(src) {
		plan.FinalRecvs = Run{end, int32(len(src)) - end}
	}
	sends = sends[:0]
	for i := 0; i < len(st.del); {
		d, from := st.del[i].dst(), i
		for ; i < len(st.del) && st.del[i].dst() == d; i++ {
			src[int(at)+i] = int32(st.del[i].src())
		}
		if r := (Run{at + int32(from), int32(i - from)}); d == st.rank {
			plan.FinalSelfCopies = r
		} else {
			sends = append(sends, FinalSend{Dst: int32(d), Sources: r})
		}
	}
	if len(sends) > 0 {
		plan.FinalSends = sends[:len(sends):len(sends)]
	}
	return plan
}

// sendCount is the number of FinalSends final emits: one per
// destination other than the rank itself, each counted into tally too
// unless it is nil.
func (st *rankState) sendCount(tally []int32) int {
	sends := 0
	for i, e := range st.del {
		if d := e.dst(); (i == 0 || st.del[i-1].dst() != d) && d != st.rank {
			if sends++; tally != nil {
				tally[d]++
			}
		}
	}
	return sends
}
