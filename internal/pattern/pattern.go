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
// Pattern invariants (checked by Validate): delivery responsibility for
// every edge u→v rests with exactly one rank at every step; a rank only
// holds responsibility for sources whose payload its buffer contains;
// every edge is eventually satisfied by a step self-copy, a final-phase
// message, or a final self-copy.
package pattern

import (
	"fmt"
	"sort"

	"nbrallgather/internal/bitset"
	"nbrallgather/internal/order"
	"nbrallgather/internal/vgraph"
)

// NoRank marks an absent agent or origin in a Step.
const NoRank = -1

// Step is one halving step of one rank's plan. Halves are half-open
// rank intervals; H1 contains the rank itself.
type Step struct {
	// H1Lo, H1Hi bound the half containing the rank after this step's
	// split.
	H1Lo, H1Hi int
	// H2Lo, H2Hi bound the opposite half.
	H2Lo, H2Hi int
	// Agent is the rank in H2 this rank offloads its H2 deliveries to,
	// or NoRank if negotiation failed (the deliveries then fall through
	// to the final phase as direct sends).
	Agent int
	// Origin is the rank in H2 this rank agreed to act as agent for,
	// or NoRank.
	Origin int
	// RecvSources lists, in buffer order, the source ranks whose
	// payloads arrive with the origin's buffer at this step (the
	// origin itself plus its previously accumulated sources). Empty
	// when Origin == NoRank.
	RecvSources []int
	// SendCount is the number of m-byte payload segments in the buffer
	// this rank ships to its agent at this step (the paper's d_old).
	// Zero when Agent == NoRank.
	SendCount int
	// SelfCopies lists sources among RecvSources that are incoming
	// neighbors of this rank whose delivery responsibility arrived
	// here (the paper's "origins ∩ I" copy, generalised): their
	// payload is copied straight to the receive buffer.
	SelfCopies []int
}

// FinalSend is one remainder-phase message: the listed sources'
// payloads, concatenated, to Dst.
type FinalSend struct {
	Dst     int
	Sources []int
}

// RankPlan is the complete plan for one rank.
type RankPlan struct {
	Rank  int
	Steps []Step
	// FinalSends are the remainder-phase deliveries this rank makes,
	// sorted by destination.
	FinalSends []FinalSend
	// FinalRecvs are the ranks this rank receives a remainder-phase
	// message from, ascending.
	FinalRecvs []int
	// FinalSelfCopies are sources whose payload this rank holds and is
	// itself the destination of, still pending at the final phase.
	FinalSelfCopies []int
	// BufSources is the rank's final main-buffer content, in order:
	// itself first, then each step's RecvSources.
	BufSources []int
}

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
	return BuildWithPolicy(g, l, PolicyLoadAware)
}

// BuildWithPolicy constructs the pattern with an explicit agent
// selection policy.
func BuildWithPolicy(g *vgraph.Graph, l int, policy Policy) (*Pattern, error) {
	return BuildAvoiding(g, l, policy, nil)
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
	return (&builder{g: g, n: n, l: l, policy: policy, avoid: avoid}).build()
}

func (b *builder) build() (*Pattern, error) {
	b.init()
	for len(b.active) > 0 {
		b.step()
	}
	return b.finish()
}

// deliv tracks one rank's outstanding delivery responsibilities:
// source → destination set. Destinations are ranks the source's payload
// must still be delivered to by this rank.
type deliv map[int]*bitset.Set

type rankState struct {
	rank   int
	lo, hi int // current h1 before the next split
	steps  []Step
	// buf is the ordered source list of the rank's main buffer.
	buf []int
	// hasSrc marks membership in buf.
	hasSrc *bitset.Set
	// del is the outstanding delivery map.
	del deliv
}

type builder struct {
	g      *vgraph.Graph
	n, l   int
	policy Policy
	// avoid marks ranks excluded from relay roles (nil = none).
	avoid  []bool
	states []*rankState
	// active lists ranks whose current half still exceeds L.
	active []int
	stats  Stats
	// candidates' scratch: per acceptor, the out-neighbors shared with
	// the current proposer, and the acceptors with a non-zero entry.
	shared  []int32
	touched []int
	enum    int8 // set only by tests: pins candidates to one enumeration
}

func (b *builder) init() {
	b.shared = make([]int32, b.n)
	b.states = make([]*rankState, b.n)
	for r := 0; r < b.n; r++ {
		st := &rankState{
			rank:   r,
			lo:     0,
			hi:     b.n,
			buf:    []int{r},
			hasSrc: bitset.New(b.n),
			del:    deliv{},
		}
		st.hasSrc.Add(r)
		if b.g.OutDegree(r) > 0 {
			st.del[r] = b.g.OutSet(r).Clone()
		}
		b.states[r] = st
	}
	for r := 0; r < b.n; r++ {
		if b.n > b.l {
			b.active = append(b.active, r)
		}
	}
}

// pairKey identifies a sibling block pair by its parent interval.
type pairKey struct{ lo, hi int }

// step performs one global halving level: splits every active rank's
// half, matches agents within each sibling block pair (both
// directions), and applies the offload/onload bookkeeping.
func (b *builder) step() {
	// Group active ranks by parent block.
	groups := map[pairKey][]int{}
	var keys []pairKey
	for _, r := range b.active {
		st := b.states[r]
		k := pairKey{st.lo, st.hi}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].lo < keys[j].lo })

	var nextActive []int
	for _, k := range keys {
		mid := Halves(k.lo, k.hi)
		// Two independent matchings: lower-half proposers with
		// upper-half acceptors, then the reverse (the paper's two
		// find_agent/find_origin phases).
		agentOfLow, originOfHigh := b.match(k.lo, mid, mid, k.hi)
		agentOfHigh, originOfLow := b.match(mid, k.hi, k.lo, mid)

		for _, r := range groups[k] {
			st := b.states[r]
			var s Step
			if r < mid {
				st.lo, st.hi = k.lo, mid
				s.H1Lo, s.H1Hi, s.H2Lo, s.H2Hi = k.lo, mid, mid, k.hi
				s.Agent, s.Origin = agentOfLow[r-k.lo], originOfLow[r-k.lo]
			} else {
				st.lo, st.hi = mid, k.hi
				s.H1Lo, s.H1Hi, s.H2Lo, s.H2Hi = mid, k.hi, k.lo, mid
				s.Agent, s.Origin = agentOfHigh[r-mid], originOfHigh[r-mid]
			}
			st.steps = append(st.steps, s)
		}

		// Apply the step's data/delivery movement. Offloads must read
		// the pre-step state of every participant, so: first collect
		// all transfers, then apply.
		b.applyTransfers(groups[k])
	}

	for _, r := range b.active {
		st := b.states[r]
		if st.hi-st.lo > b.l {
			nextActive = append(nextActive, r)
		}
	}
	b.active = nextActive
}

// cand is one scored proposer/acceptor pair of a matching.
type cand struct {
	w    int
	p, a int
}

const enumIntersect, enumCount int8 = 1, 2

// match computes the stable matching between proposers [plo, phi) and
// acceptors [alo, ahi) under the symmetric weight
// w(p, a) = |O(p) ∩ O(a) ∩ [alo, ahi)| (shared outgoing neighbors in
// the proposers' opposite half). Pairs with zero weight never match. A
// proposer only participates if it currently wants an agent: it must
// have outstanding deliveries in the opposite half. The results map
// proposer offset → agent rank and, inverted, acceptor offset → origin
// rank, NoRank where unmatched.
func (b *builder) match(plo, phi, alo, ahi int) (agentOf, originOf []int) {
	agentOf, originOf = make([]int, phi-plo), make([]int, ahi-alo)
	for i := range agentOf {
		agentOf[i] = NoRank
	}
	for i := range originOf {
		originOf[i] = NoRank
	}
	var cands []cand
	for p := plo; p < phi; p++ {
		if b.avoid != nil && b.avoid[p] {
			// An avoided proposer would have to ship its buffer across
			// its wounded resource; its deliveries stay with it as
			// direct final sends.
			continue
		}
		if !b.wantsAgent(b.states[p], alo, ahi) {
			continue
		}
		cands = b.candidates(cands, p, alo, ahi)
		b.stats.AgentAttempts++
	}
	sort.Slice(cands, func(i, j int) bool {
		if b.policy == PolicyLoadAware && cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		if cands[i].p != cands[j].p {
			return cands[i].p < cands[j].p
		}
		return cands[i].a < cands[j].a
	})
	for _, c := range cands {
		if agentOf[c.p-plo] != NoRank || originOf[c.a-alo] != NoRank {
			continue
		}
		agentOf[c.p-plo], originOf[c.a-alo] = c.a, c.p
		b.stats.AgentSuccesses++
	}
	return agentOf, originOf
}

// candidates appends proposer p's scored pairs: every unavoided
// acceptor a in [alo, ahi) with w(p, a) > 0. Two enumerations yield the
// same set (match's sort is a total order, so their order is moot):
// intersect p's out-set with every acceptor's over the range, or walk
// the in-lists of p's out-neighbors in the range and count how often
// each acceptor turns up. The cheaper one runs: counting on
// bounded-degree graphs, where it keeps a level linear in ranks,
// intersecting on dense ones, where a word covers 64 neighbors.
func (b *builder) candidates(cands []cand, p, alo, ahi int) []cand {
	count := b.enum == enumCount || b.enum == 0 && b.countCheaper(p, alo, ahi)
	if !count {
		po := b.g.OutSet(p)
		for a := alo; a < ahi; a++ {
			if b.avoid != nil && b.avoid[a] {
				continue
			}
			if w := po.AndCountRange(b.g.OutSet(a), alo, ahi); w > 0 {
				cands = append(cands, cand{w, p, a})
			}
		}
		return cands
	}
	b.touched = b.touched[:0]
	for _, d := range b.g.Out(p) {
		if d < alo || d >= ahi {
			continue
		}
		for _, a := range b.g.In(d) {
			if a < alo || a >= ahi || b.avoid != nil && b.avoid[a] {
				continue
			}
			if b.shared[a] == 0 {
				b.touched = append(b.touched, a)
			}
			b.shared[a]++
		}
	}
	for _, a := range b.touched {
		cands = append(cands, cand{int(b.shared[a]), p, a})
		b.shared[a] = 0
	}
	return cands
}

// countCheaper is candidates' cost rule: the in-degrees counting would
// walk against the acceptors × range words intersecting would.
func (b *builder) countCheaper(p, alo, ahi int) bool {
	limit := (ahi - alo) * ((ahi-1)>>6 - alo>>6 + 1)
	out, work := b.g.Out(p), 0
	for _, d := range out[sort.SearchInts(out, alo):] {
		if d >= ahi || work >= limit {
			break
		}
		work += b.g.InDegree(d)
	}
	return work < limit
}

// wantsAgent reports whether st has any outstanding delivery into
// [lo, hi) — its own remaining out-neighbors there or inherited origin
// deliveries. Deliveries to avoided destinations don't count: they are
// pinned to their original source and cannot be offloaded.
func (b *builder) wantsAgent(st *rankState, lo, hi int) bool {
	for _, dests := range st.del {
		if b.avoid == nil {
			if dests.AnyInRange(lo, hi) {
				return true
			}
			continue
		}
		for _, d := range dests.ElemsRange(nil, lo, hi) {
			if !b.avoid[d] {
				return true
			}
		}
	}
	return false
}

// applyTransfers realises this step's agreed agent/origin relations for
// every rank in the two sibling blocks: buffers travel to agents along
// with the descriptor D (the h2 slice of each delivery entry).
func (b *builder) applyTransfers(ranks []int) {
	type xfer struct {
		from, to int
		sources  []int         // buffer content shipped (pre-step order)
		entries  map[int][]int // descriptor D: source → destinations
	}
	var xfers []xfer
	for _, r := range ranks {
		st := b.states[r]
		s := &st.steps[len(st.steps)-1]
		if s.Agent == NoRank {
			continue
		}
		x := xfer{from: r, to: s.Agent, entries: map[int][]int{}}
		x.sources = append([]int(nil), st.buf...)
		s.SendCount = len(st.buf)
		for src, dests := range st.del {
			moved := dests.ElemsRange(nil, s.H2Lo, s.H2Hi)
			if b.avoid != nil {
				// Deliveries to avoided destinations stay pinned to the
				// current holder (inductively the original source), so
				// they surface as direct final sends along graph edges.
				kept := moved[:0]
				for _, d := range moved {
					if b.avoid[d] {
						continue
					}
					kept = append(kept, d)
					dests.Remove(d)
				}
				moved = kept
			} else {
				dests.RemoveRange(s.H2Lo, s.H2Hi)
			}
			if len(moved) == 0 {
				continue
			}
			x.entries[src] = moved
			if dests.Count() == 0 {
				delete(st.del, src)
			}
		}
		xfers = append(xfers, x)
	}
	for _, x := range xfers {
		st := b.states[x.to]
		s := &st.steps[len(st.steps)-1]
		s.RecvSources = append([]int(nil), x.sources...)
		for _, src := range x.sources {
			if !st.hasSrc.Has(src) {
				st.hasSrc.Add(src)
				st.buf = append(st.buf, src)
			}
		}
		for _, src := range order.SortedKeys(x.entries) {
			dests := x.entries[src]
			set := st.del[src]
			if set == nil {
				set = bitset.New(b.n)
				st.del[src] = set
			}
			for _, d := range dests {
				if d == x.to {
					// Delivery to self: satisfied by a local copy the
					// moment the payload arrives.
					s.SelfCopies = append(s.SelfCopies, src)
					continue
				}
				set.Add(d)
			}
		}
		for src, dests := range st.del {
			if dests.Count() == 0 {
				delete(st.del, src)
			}
		}
		sort.Ints(s.SelfCopies)
	}
}

// finish derives final-phase sends/recvs from residual deliveries and
// assembles the Pattern.
func (b *builder) finish() (*Pattern, error) {
	p := &Pattern{Graph: b.g, L: b.l, Plans: make([]RankPlan, b.n)}
	// destSenders[v] accumulates ranks that send v a final message.
	destSenders := make([][]int, b.n)
	for r := 0; r < b.n; r++ {
		st := b.states[r]
		plan := RankPlan{Rank: r, Steps: st.steps, BufSources: st.buf}
		bySrcDst := map[int][]int{} // dst → sources
		for _, src := range order.SortedKeys(st.del) {
			for _, d := range st.del[src].Elems(nil) {
				if d == r {
					plan.FinalSelfCopies = append(plan.FinalSelfCopies, src)
					continue
				}
				bySrcDst[d] = append(bySrcDst[d], src)
			}
		}
		for _, d := range order.SortedKeys(bySrcDst) {
			srcs := bySrcDst[d]
			sort.Ints(srcs)
			plan.FinalSends = append(plan.FinalSends, FinalSend{Dst: d, Sources: srcs})
			destSenders[d] = append(destSenders[d], r)
		}
		sort.Ints(plan.FinalSelfCopies)
		if len(st.buf) > p.Stats.MaxBufSources {
			p.Stats.MaxBufSources = len(st.buf)
		}
		p.Plans[r] = plan
	}
	for r := 0; r < b.n; r++ {
		senders := destSenders[r]
		sort.Ints(senders)
		p.Plans[r].FinalRecvs = senders
	}
	p.Stats.AgentAttempts = b.stats.AgentAttempts
	p.Stats.AgentSuccesses = b.stats.AgentSuccesses
	return p, nil
}
