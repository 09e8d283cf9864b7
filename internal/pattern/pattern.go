// Package pattern builds the Distance Halving communication pattern of
// Section VI: for every rank, a sequence of halving steps — each with an
// optional agent (the rank in the opposite half that takes over its
// deliveries there) and an optional origin (the rank it serves as agent
// for) — followed by a remainder phase of direct deliveries, mostly
// confined to the local socket.
//
// Two builders produce the same pattern type:
//
//   - Build (this file) is a deterministic, centralized builder. Each
//     halving step's agent/origin assignment is the stable matching
//     under the paper's symmetric preference weight — the number of
//     shared outgoing neighbors inside the opposite half (matrix A
//     restricted to h2) — computed greedily in descending weight order.
//   - BuildDistributed (distributed.go) runs the paper's actual
//     REQ/ACCEPT/DROP/EXIT negotiation (Algorithms 2 and 3) over the
//     mpirt runtime, and is what the Fig. 8 overhead experiment
//     measures.
//
// Both keep one rankState per rank (state.go) and enumerate candidates
// with one function (builder.candidates), so they differ only in how a
// level's matching is found.
//
// Pattern invariants (the first two hold after every level, and Validate
// checks their consequences): delivery responsibility for every edge
// u→v rests with exactly one rank — the edge is an entry of exactly one
// rank's delivery list, so the lists together hold Edges() entries
// whatever the rank count; a rank only holds responsibility for sources
// whose payload its buffer contains; every edge is eventually satisfied
// by a step self-copy, a final-phase message, or a final self-copy.
package pattern

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"nbrallgather/internal/bitset"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/sweep"
	"nbrallgather/internal/vgraph"
)

// NoRank marks an absent agent or origin in a Step.
const NoRank = -1

// Run is a window [Off, Off+Len) of a rank plan's source arena.
type Run struct{ Off, Len int32 }

// Step is one halving step of one rank's plan: a pointer-free record.
// Its halves are not stored: Level derives them from the rank count,
// the step's level and the rank.
type Step struct {
	// Agent is the rank in h2 this rank offloads its h2 deliveries to,
	// or NoRank if negotiation failed (the deliveries then fall through
	// to the final phase as direct sends).
	Agent int32
	// Origin is the rank in h2 this rank agreed to act as agent for,
	// or NoRank.
	Origin int32
	// SendCount is the number of m-byte payload segments in the buffer
	// this rank ships to its agent at this step (the paper's d_old).
	// Zero when Agent == NoRank.
	SendCount int32
	// Recv is RecvSources: in buffer order, the source ranks whose
	// payloads arrive with the origin's buffer at this step (the origin
	// itself plus its previously accumulated sources), a window of
	// BufSources. Empty when Origin == NoRank.
	Recv Run
	// Copies is SelfCopies: the sources among RecvSources that are
	// incoming neighbors of this rank whose delivery responsibility
	// arrived here (the paper's "origins ∩ I" copy, generalised): their
	// payload is copied straight to the receive buffer.
	Copies Run
}

// FinalSend is one remainder-phase message: the listed sources'
// payloads, concatenated, to Dst.
type FinalSend struct {
	Dst     int32
	Sources Run
}

// RankPlan is the complete plan for one rank. Its lists are Runs of Src.
type RankPlan struct {
	Rank  int
	Steps []Step
	// FinalSends are the remainder-phase deliveries this rank makes,
	// sorted by destination.
	FinalSends []FinalSend
	// FinalRecvs are the ranks this rank receives a remainder-phase
	// message from, ascending.
	FinalRecvs Run
	// FinalSelfCopies are sources whose payload this rank holds and is
	// itself the destination of, still pending at the final phase.
	FinalSelfCopies Run
	// BufSources is the rank's final main-buffer content, in order:
	// itself first, then each step's RecvSources.
	BufSources Run
	// Src is the rank's source arena: BufSources, the steps' self-copies,
	// the final sources, then FinalRecvs.
	Src []int32
}

// Sources returns the ranks run r of the plan lists. Read-only.
func (pl *RankPlan) Sources(r Run) []int32 { return pl.Src[r.Off : r.Off+r.Len : r.Off+r.Len] }

// Stats aggregates pattern-quality measures reported in the paper.
type Stats struct {
	// AgentAttempts counts steps in which a rank had offloadable
	// deliveries in h2 (and so wanted an agent).
	AgentAttempts int
	// AgentSuccesses counts attempts that found an agent.
	AgentSuccesses int
	// MaxBufSources is the largest final buffer length in segments
	// (the worst-case message growth of Section V-B).
	MaxBufSources int
}

// SuccessRate returns AgentSuccesses/AgentAttempts, or 1 when no rank
// ever needed an agent.
func (s Stats) SuccessRate() float64 {
	if s.AgentAttempts == 0 {
		return 1
	}
	return float64(s.AgentSuccesses) / float64(s.AgentAttempts)
}

// Pattern is the full communication pattern for one (graph, L) pair.
type Pattern struct {
	Graph *vgraph.Graph
	// L is the halving stop threshold (ranks per socket).
	L     int
	Plans []RankPlan
	Stats Stats
}

// Halves returns the interval split the paper's Algorithm 1 performs:
// [lo, hi) splits into a lower half [lo, mid) holding ceil(size/2)
// ranks and an upper half [mid, hi).
func Halves(lo, hi int) (mid int) {
	return lo + (hi-lo+1)/2
}

// Level returns rank r's halves at halving step t of an n-rank pattern:
// h1 = [h1lo, h1hi) holds r, h2 = [h2lo, h2hi) is the opposite half.
func Level(n, t, r int) (h1lo, h1hi, h2lo, h2hi int) {
	for lo, hi := 0, n; ; t-- {
		mid := Halves(lo, hi)
		if h1lo, h1hi, h2lo, h2hi = lo, mid, mid, hi; r >= mid {
			h1lo, h1hi, h2lo, h2hi = mid, hi, lo, mid
		}
		if t == 0 {
			return h1lo, h1hi, h2lo, h2hi
		}
		lo, hi = h1lo, h1hi
	}
}

// Policy selects how agents are chosen among candidates.
type Policy int

const (
	// PolicyLoadAware is the paper's mechanism: agents maximise shared
	// outgoing neighbors in the opposite half.
	PolicyLoadAware Policy = iota
	// PolicyFirstFit ignores weights and pairs each proposer with its
	// lowest-ranked available candidate — the ablation baseline
	// showing what the load-aware selection buys.
	PolicyFirstFit
)

// Build constructs the pattern centrally and deterministically with
// the paper's load-aware agent selection.
func Build(g *vgraph.Graph, l int) (*Pattern, error) {
	return BuildAvoiding(g, l, PolicyLoadAware, nil)
}

// BuildAvoiding constructs the pattern while steering relay traffic
// away from avoided ranks — the link-aware repair path: a rank whose
// port or node NIC carries a fault must neither relay other ranks'
// buffers nor ship its own buffer across the wounded resource. Avoided
// ranks never propose or accept in the agent matching (their deliveries
// all fall through to direct final sends, which are graph edges), and
// delivery responsibility for an avoided destination never transfers
// away from the original source — so every send the pattern performs
// either stays between unimpaired ranks or is a direct graph edge,
// which the repair layer has already checked for feasibility. A nil
// avoid slice is the unrestricted builder.
func BuildAvoiding(g *vgraph.Graph, l int, policy Policy, avoid []bool) (*Pattern, error) {
	if l < 1 {
		return nil, fmt.Errorf("pattern: stop threshold L=%d must be positive", l)
	}
	n := g.N()
	if avoid != nil && len(avoid) != n {
		return nil, fmt.Errorf("pattern: avoid set has %d entries for %d ranks", len(avoid), n)
	}
	w := builders.Get()
	w.g, w.n, w.l, w.policy, w.avoid = g, n, l, policy, avoid
	p := w.build()
	if w.release(); n < sweep.Grain {
		builders.Put(w)
	}
	return p, nil
}

// builders pools builders with their scratch: a build allocates only
// what its Pattern keeps.
var builders mpirt.Scratch[builder]

func (b *builder) build() *Pattern {
	b.init()
	for len(b.active) > 0 {
		b.step()
	}
	return b.finish()
}

// block is a rank interval [lo, hi) still being halved.
type block struct{ lo, hi int }

type builder struct {
	g      *vgraph.Graph
	n, l   int
	policy Policy
	// avoid marks ranks excluded from relay roles (nil = none).
	avoid  []bool
	states []rankState
	// active lists, ascending, the blocks still larger than L.
	active []block
	stats  Stats // this worker's matches; finish adds the helper's
	// One level's matching, by rank, NoRank where unmatched; a level's
	// blocks are disjoint, so they share the two arrays.
	agentOf, originOf []int32
	// This worker's scratch for its blocks: match's proposers and
	// candidates, the kernel's masked proposer words, preferred's buckets
	// and sorted candidates, and the transfers' descriptors.
	props         []proposer
	cands, sorted []cand
	masked        []uint64
	start         []int
	moved         []owed
	xfers         []xfer
	// The ranks' initial buffers, delivery lists and self-copy room: what
	// the states hold is scratch until finish copies it into the Pattern.
	bufs, copies []int32
	dels         []owed
	// tally counts, per destination, the final senders among this
	// worker's ranks, then is where the next one goes.
	tally []int32
	// The counting enumeration's scratch, by candidate offset: the
	// out-neighbors shared with the current rank, and a bit per non-zero
	// entry.
	shared []int32
	marks  []uint64
	enum   int8 // set only by tests: pins candidates to one enumeration
	split  int8 // set only by tests: sweep.SplitNever or SplitAlways overrides the grain
	// helper is the second worker of a split pass, made on the first.
	helper *builder
	// rows, set only by tests, stands in for the bit rows of a graph
	// that keeps none, so intersecting can run on it.
	rows []*bitset.Set
}

func (b *builder) init() {
	n, e := b.n, b.g.Edges()
	b.states = mpirt.Reuse(b.states, n)
	b.agentOf, b.originOf = mpirt.Reuse(b.agentOf, n), mpirt.Reuse(b.originOf, n)
	b.bufs, b.dels, b.copies = mpirt.Reuse(b.bufs, n), mpirt.Reuse(b.dels, e), mpirt.Reuse(b.copies, e)
	b.stats = Stats{}
	// The level count is known up front: every rank's steps are one
	// slice of a single allocation. So is every rank's initial buffer,
	// its delivery list (one entry per out-edge) and its self-copy room
	// (one per in-edge).
	k := levels(n, b.l)
	steps, bufs, dels, copies := make([]Step, n*k), b.bufs, b.dels, b.copies
	for r := range b.states {
		d, c := b.g.OutDegree(r), b.g.InDegree(r)
		b.states[r] = newRankState(b.g, r, steps[r*k:r*k:(r+1)*k], bufs[r:r+1:r+1], dels[:d:d], copies[:0:c])
		dels, copies = dels[d:], copies[c:]
	}
	b.active = b.active[:0]
	if n > b.l {
		b.active = append(b.active, block{0, n})
	}
}

// release drops what a pooled builder holds of the build just done.
func (b *builder) release() {
	clear(b.states) // their steps are the Pattern's
	b.g, b.avoid, b.helper = nil, nil, nil
}

// step performs one global halving level: splits every active block,
// matches agents between its halves (both directions), and applies the
// offload/onload bookkeeping. A level that sweep.Split splits forks
// once. With one block, its two matchings run side by side: they write
// disjoint halves of agentOf and originOf, and read only the delivery
// lists and the graph. With more, each worker halves one contiguous run
// of blocks of about half the level's ranks: a block's matching,
// transfers and steps touch only its own ranks' states.
func (b *builder) step() {
	ranks := 0
	for _, k := range b.active {
		ranks += k.hi - k.lo
	}
	switch {
	case !sweep.Split(ranks, b.split):
		b.halve(b.active)
	case len(b.active) == 1:
		k := b.active[0]
		mid := Halves(k.lo, k.hi)
		b.fork(func(w *builder) { w.match(k.lo, mid, mid, k.hi) }, func(w *builder) { w.match(mid, k.hi, k.lo, mid) })
		b.settle(k)
	default:
		cut, at := 1, b.active[0].hi-b.active[0].lo
		for ; cut < len(b.active)-1 && 2*at < ranks; cut++ {
			at += b.active[cut].hi - b.active[cut].lo
		}
		lo, hi := b.active[:cut], b.active[cut:]
		b.fork(func(w *builder) { w.halve(lo) }, func(w *builder) { w.halve(hi) })
	}
	next := b.active[len(b.active):]
	for _, k := range b.active {
		mid := Halves(k.lo, k.hi)
		for _, h := range []block{{k.lo, mid}, {mid, k.hi}} {
			if h.hi-h.lo > b.l {
				next = append(next, h)
			}
		}
	}
	b.active = append(b.active[:0], next...)
}

// halve runs one level over blocks: two independent matchings per block
// — lower-half proposers with upper-half acceptors, then the reverse
// (the paper's two find_agent/find_origin phases) — then its transfers.
func (b *builder) halve(blocks []block) {
	for _, k := range blocks {
		mid := Halves(k.lo, k.hi)
		b.match(k.lo, mid, mid, k.hi)
		b.match(mid, k.hi, k.lo, mid)
		b.settle(k)
	}
}

// settle records the level's step of every rank of block k and applies
// the transfers its matchings agreed.
func (b *builder) settle(k block) {
	for r := k.lo; r < k.hi; r++ {
		st := &b.states[r]
		st.steps = st.steps[:len(st.steps)+1] // within the capped slice: no pointer written
		st.steps[len(st.steps)-1] = Step{Agent: b.agentOf[r], Origin: b.originOf[r]}
	}
	b.applyTransfers(k)
}

// fork runs first on this builder and, at once, second on its helper: a
// builder sharing the graph, the states and the matching arrays, with
// scratch and Stats of its own.
func (b *builder) fork(first, second func(w *builder)) {
	if b.helper == nil {
		b.helper = &builder{g: b.g, n: b.n, l: b.l, policy: b.policy, avoid: b.avoid, states: b.states,
			agentOf: b.agentOf, originOf: b.originOf, enum: b.enum, rows: b.rows}
	}
	sweep.Both(func() { first(b) }, func() { second(b.helper) })
}

// cand is one scored proposer/acceptor pair of a matching.
type cand struct {
	w, p, a int32
}

// proposer is a rank wanting an agent and how candidates lists its pairs.
type proposer struct {
	r     int
	count bool
}

const enumIntersect, enumCount int8 = 1, 2

// match computes the stable matching between proposers [plo, phi) and
// acceptors [alo, ahi) under the symmetric weight
// w(p, a) = |O(p) ∩ O(a) ∩ [alo, ahi)| (shared outgoing neighbors in
// the proposers' opposite half). Pairs with zero weight never match. A
// proposer only participates if it currently wants an agent: it must
// have outstanding deliveries in the opposite half. The results land in
// agentOf[plo:phi] and, inverted, originOf[alo:ahi].
func (b *builder) match(plo, phi, alo, ahi int) {
	for p := plo; p < phi; p++ {
		b.agentOf[p] = NoRank
	}
	for a := alo; a < ahi; a++ {
		b.originOf[a] = NoRank
	}
	// Proposers first, with a bound on their pairs: the candidate scratch
	// then grows at most once a match (once a build on a dense graph).
	props, need := b.props[:0], 0
	for p := plo; p < phi; p++ {
		// An avoided proposer would have to ship its buffer across its
		// wounded resource; its deliveries stay with it as direct final
		// sends.
		if (b.avoid != nil && b.avoid[p]) || !b.states[p].wantsAgent(alo, ahi, b.avoid) {
			continue
		}
		count, bound := b.enumeration(p, alo, ahi, alo, ahi)
		props, need = append(props, proposer{p, count}), need+bound
	}
	b.props = props
	b.stats.AgentAttempts += len(props)
	cands := mpirt.Reuse(b.cands, need)[:0]
	for _, p := range props {
		cands = b.candidates(cands, p, alo, ahi, alo, ahi)
	}
	b.cands = cands
	agentOf, originOf := b.agentOf, b.originOf
	for _, c := range b.preferred(cands) {
		if agentOf[c.p] != NoRank || originOf[c.a] != NoRank {
			continue
		}
		agentOf[c.p], originOf[c.a] = c.a, c.p
		b.stats.AgentSuccesses++
	}
}

// preferred returns cands in the policy's preference order: (p, a)
// for first fit, (w desc, p, a) for the load-aware selection. cands
// must ascend by (p, a) — candidates' contract — so a stable
// distribution over the weights, which are small integers (at most an
// out-degree), is that total order with no comparison sort.
func (b *builder) preferred(cands []cand) []cand {
	if b.policy != PolicyLoadAware {
		return cands
	}
	var maxW int32
	for _, c := range cands {
		maxW = max(maxW, c.w)
	}
	// start[w] counts the candidates of weight w, then is where the next
	// one goes.
	start := append(b.start[:0], make([]int, maxW+1)...)
	for _, c := range cands {
		start[c.w]++
	}
	at := 0
	for w := maxW; w >= 0; w-- {
		start[w], at = at, at+start[w]
	}
	sorted := mpirt.Reuse(b.sorted, len(cands))
	for _, c := range cands {
		sorted[start[c.w]] = c
		start[c.w]++
	}
	b.start, b.sorted = start, sorted
	return sorted
}

// within returns the part of an ascending rank list inside [lo, hi).
func within(list []int, lo, hi int) []int {
	list = list[sort.SearchInts(list, lo):]
	return list[:sort.SearchInts(list, hi)]
}

// candidates appends p's scored pairs, ascending by candidate: every
// unavoided c in [clo, chi) with w(p.r, c) > 0, the weight counted over
// [wlo, whi). A proposer's two ranges are both the opposite half; the
// distributed builder's acceptors rank origins of the opposite half by
// the neighbors shared in their own. Two enumerations yield the list:
// mask p's words over the weight range once, then AND+popcount each
// candidate's row (a pair is written before it is known to be kept), or
// walk the in-lists of p's out-neighbors there and count each candidate.
func (b *builder) candidates(cands []cand, p proposer, clo, chi, wlo, whi int) []cand {
	r := int32(p.r)
	if !p.count {
		first, m := b.outSet(p.r).Masked(b.masked, wlo, whi)
		b.masked = m
		at := len(cands)
		cands = slices.Grow(cands, chi-clo)[:at+chi-clo]
		for c := clo; c < chi; c++ {
			if b.avoid != nil && b.avoid[c] {
				continue
			}
			w := b.outSet(c).AndCountWords(first, m)
			cands[at] = cand{int32(w), r, int32(c)}
			if w > 0 {
				at++
			}
		}
		return cands[:at]
	}
	if len(b.shared) < chi-clo {
		b.shared, b.marks = make([]int32, chi-clo), make([]uint64, (chi-clo+63)/64)
	}
	first, last := len(b.marks), -1 // the marked words
	for _, d := range within(b.g.Out(p.r), wlo, whi) {
		for _, c := range within(b.g.In(d), clo, chi) {
			if b.avoid != nil && b.avoid[c] {
				continue
			}
			off := c - clo
			b.shared[off]++
			b.marks[off>>6] |= 1 << (off & 63)
			first, last = min(first, off>>6), max(last, off>>6)
		}
	}
	for i := first; i <= last; i++ {
		for m := b.marks[i]; m != 0; m &= m - 1 {
			off := i<<6 + bits.TrailingZeros64(m)
			cands = append(cands, cand{b.shared[off], r, int32(clo + off)})
			b.shared[off] = 0
		}
		b.marks[i] = 0
	}
	return cands
}

// enumeration is candidates' cost rule, for both builders: count when
// the in-degrees counting would walk are fewer than the words
// intersecting would read (the weight range's, once per candidate), so
// bounded-degree graphs count and dense ones intersect; a graph without
// bit rows always counts. bound is at least the pairs candidates will
// append (one per candidate, or the in-degrees summed), or 0 if unknown.
func (b *builder) enumeration(r, clo, chi, wlo, whi int) (count bool, bound int) {
	if b.enum != 0 || b.g.OutSet(r) == nil {
		return b.enum != enumIntersect, 0
	}
	limit := (whi - wlo) * ((whi-1)>>6 - wlo>>6 + 1)
	out, work := b.g.Out(r), 0
	for _, d := range out[sort.SearchInts(out, wlo):] {
		if d >= whi || work >= limit {
			break
		}
		work += b.g.InDegree(d)
	}
	if work < limit {
		return true, min(work, chi-clo)
	}
	return false, chi - clo
}

// outSet is rank r's bit row: the graph's, or a test's stand-in.
func (b *builder) outSet(r int) *bitset.Set {
	if b.rows != nil {
		return b.rows[r]
	}
	return b.g.OutSet(r)
}

// xfer is one agreed offload: the origin's buffer content as it stood
// before the step, and its descriptor D as moved[lo:hi].
type xfer struct {
	to      int32
	sources []int32
	lo, hi  int
	nb, nd  int // the agent's grown buffer and delivery list lengths
}

// applyTransfers realises this step's agreed agent/origin relations for
// every rank of the block: buffers travel to agents along with the
// descriptor D (the h2 run of each delivery list). Offloads must read
// the pre-step buffer of every participant, so: first collect all
// transfers, then apply. Agents grow into two per-block arenas, exact
// but for the self-copies onload drops from the delivery lists.
func (b *builder) applyTransfers(k block) {
	// The descriptors hold at most the agented ranks' deliveries.
	need := 0
	for r := k.lo; r < k.hi; r++ {
		if b.agentOf[r] != NoRank {
			need += len(b.states[r].del)
		}
	}
	b.moved, b.xfers = mpirt.Reuse(b.moved, need)[:0], b.xfers[:0]
	mid := Halves(k.lo, k.hi)
	for r := k.lo; r < k.hi; r++ {
		st := &b.states[r]
		s := &st.steps[len(st.steps)-1]
		if s.Agent == NoRank {
			continue
		}
		s.SendCount = int32(len(st.buf))
		from := len(b.moved)
		if r < mid {
			b.moved = st.offload(mid, k.hi, b.avoid, b.moved)
		} else {
			b.moved = st.offload(k.lo, mid, b.avoid, b.moved)
		}
		// The agent keeps the origin's buffer prefix, not a copy of it:
		// a buffer only ever grows, and never into the capped slice.
		b.xfers = append(b.xfers, xfer{s.Agent, st.buf[:len(st.buf):len(st.buf)], from, len(b.moved), 0, 0})
	}
	nb, nd := 0, 0
	for i := range b.xfers {
		x, st := &b.xfers[i], &b.states[b.xfers[i].to]
		x.nb, x.nd = len(st.buf)+len(x.sources), len(st.del)+x.hi-x.lo
		if x.nd <= cap(st.del) {
			x.nd = 0
		}
		nb, nd = nb+x.nb, nd+x.nd
	}
	bufs, dels := make([]int32, nb), make([]owed, nd)
	for _, x := range b.xfers {
		st := &b.states[x.to]
		st.buf, bufs = append(bufs[:0:x.nb], st.buf...), bufs[x.nb:]
		if x.nd > 0 {
			st.del, dels = append(dels[:0:x.nd], st.del...), dels[x.nd:]
		}
		st.onload(&st.steps[len(st.steps)-1], x.sources, b.moved[x.lo:x.hi])
	}
}

// finish assembles the Pattern from what every rank still owes. A count
// pass tallies each rank's FinalSends and, per destination, its final
// senders; a serial pass places every rank's source arena (buffer,
// self-copies, final sources, FinalRecvs) in one allocation and its
// FinalSends in another; a fill pass writes them. When sweep.Split
// splits the ranks, each half of them is counted and filled by one
// worker, with a tally of its own: the lower half's senders come first
// in every FinalRecvs, so each ascends as a serial fill leaves it.
func (b *builder) finish() *Pattern {
	n := b.n
	p := &Pattern{Graph: b.g, L: b.l, Plans: make([]RankPlan, n), Stats: b.stats}
	if h := b.helper; h != nil {
		p.Stats.AgentAttempts += h.stats.AgentAttempts
		p.Stats.AgentSuccesses += h.stats.AgentSuccesses
	}
	half := n
	if sweep.Split(n, b.split) {
		half = n / 2
	}
	each := func(pass func(w *builder, lo, hi int)) {
		if half < n {
			b.fork(func(w *builder) { pass(w, 0, half) }, func(w *builder) { pass(w, half, n) })
		} else {
			pass(b, 0, n)
		}
	}
	// The matching's arrays are free now: per rank, its arena offset and
	// its FinalSends count, then offset.
	off, fsOff := b.agentOf, b.originOf
	each(func(w *builder, lo, hi int) {
		w.tally = mpirt.Reuse(w.tally, n)
		clear(w.tally)
		for r := lo; r < hi; r++ {
			fsOff[r] = int32(b.states[r].sendCount(w.tally))
		}
	})
	at, fs := int32(0), int32(0)
	for r := range b.states {
		st, recvs := &b.states[r], b.tally[r]
		base := at + int32(len(st.buf)+len(st.copies)+len(st.del))
		if half < n {
			recvs, b.helper.tally[r] = recvs+b.helper.tally[r], base+b.tally[r]
		}
		off[r], fsOff[r], at, fs, b.tally[r] = at, fs, base+recvs, fs+fsOff[r], base
		p.Stats.MaxBufSources = max(p.Stats.MaxBufSources, len(st.buf))
	}
	arena, sends := make([]int32, at), make([]FinalSend, fs)
	each(func(w *builder, lo, hi int) {
		for r := lo; r < hi; r++ {
			end, fend := at, fs
			if r+1 < n {
				end, fend = off[r+1], fsOff[r+1]
			}
			p.Plans[r] = b.states[r].final(arena[off[r]:end:end], sends[fsOff[r]:fend:fend])
			for _, s := range p.Plans[r].FinalSends {
				arena[w.tally[s.Dst]] = int32(r)
				w.tally[s.Dst]++
			}
		}
	})
	return p
}
