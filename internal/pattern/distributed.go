package pattern

import (
	"fmt"
	"slices"

	"nbrallgather/internal/bitset"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/order"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/vgraph"
)

// The distributed builder runs the paper's Algorithms 1–3 as a real
// message protocol over the mpirt runtime. Its outcome is the
// proposer-optimal stable matching under the globally consistent order
// (weight desc, proposer asc, acceptor asc) — the same matching the
// central builder computes — but it pays the real negotiation cost:
// one REQ or EXIT from every proposer to every positive-weight
// candidate and one ACCEPT or DROP back, plus the per-step agent
// notifications of Algorithm 1 line 30 and the descriptor D transfer.
// This is the cost Fig. 8 measures.

// Signal kinds of Algorithms 2 and 3.
const (
	sigREQ = iota
	sigACCEPT
	sigDROP
	sigEXIT
)

// signalBytes is the modelled wire size of one negotiation signal.
const signalBytes = 8

// noteBytes is the modelled wire size of one agent notification.
const noteBytes = 8

// The build protocol's tag layout lives in the internal/tags registry
// (tags.PropBase …): each halving step uses its own tag group so
// asynchronously progressing ranks never mismatch messages.

// descMsg is the meta payload of the descriptor transfer: the origin's
// buffer source order plus the deliveries it offloads.
type descMsg struct {
	sources []int32
	moved   []owed
}

// descMsgBytes models the wire size of a descriptor transfer: the
// buffer order, then per source with a delivery its destination list.
func descMsgBytes(d *descMsg) int {
	srcs := make([]int, len(d.moved))
	for i, e := range d.moved {
		srcs[i] = e.src()
	}
	slices.Sort(srcs)
	return 8 * (len(d.sources) + 2 + len(d.moved) + len(slices.Compact(srcs)))
}

// finalNote announces count remainder-phase edges from its sender.
type finalNote struct{ count int }

// BuildDistributed constructs the pattern by running the negotiation
// protocol on the given runtime configuration and returns the pattern
// together with the runtime report (virtual build time and message
// counts — the Fig. 8 overhead measurement). The stop threshold L is
// taken from the cluster.
func BuildDistributed(cfg mpirt.Config, g *vgraph.Graph) (*Pattern, *mpirt.Report, error) {
	if cfg.Ranks == 0 {
		cfg.Ranks = g.N()
	}
	if cfg.Ranks != g.N() {
		return nil, nil, fmt.Errorf("pattern: graph has %d ranks but config runs %d", g.N(), cfg.Ranks)
	}
	l := cfg.Cluster.L()
	plans, counts := make([]RankPlan, g.N()), make([]Stats, g.N())
	rep, err := mpirt.Run(cfg, func(p *mpirt.Proc) {
		plan, a, s := BuildRank(p, g, l)
		plans[p.Rank()], counts[p.Rank()] = *plan, Stats{a, s, int(plan.BufSources.Len)}
	})
	if err != nil {
		return nil, nil, err
	}
	pat := &Pattern{Graph: g, L: l, Plans: plans}
	for _, c := range counts {
		pat.Stats.AgentAttempts += c.AgentAttempts
		pat.Stats.AgentSuccesses += c.AgentSuccesses
		pat.Stats.MaxBufSources = max(pat.Stats.MaxBufSources, c.MaxBufSources)
	}
	return pat, rep, nil
}

// BuildRank plays one rank's side of the build protocol. It must be
// called from within an mpirt rank body by every rank of the runtime.
// It returns the rank's plan and its agent attempt/success counts.
func BuildRank(p *mpirt.Proc, g *vgraph.Graph, l int) (plan *RankPlan, attempts, successes int) {
	if l < 1 {
		panic("pattern: stop threshold must be positive")
	}
	r := p.Rank()
	n := g.N()

	// calculate_A: every rank learns every other rank's outgoing
	// neighbor list. We model the exchange as a Bruck-style allgather
	// (⌈log2 n⌉ rounds with accumulating payloads); the lists
	// themselves are globally visible in-process, so only the cost is
	// exchanged.
	ChargeNeighborListExchange(p, g)

	st := newRankState(g, r, make([]Step, 0, levels(n, l)), make([]int32, 1), make([]owed, g.OutDegree(r)), make([]int32, 0, g.InDegree(r)))

	for lo, hi, t := 0, n, 0; hi-lo > l; t++ {
		h1lo, h1hi, h2lo, h2hi := Level(n, t, r)
		lo, hi = h1lo, h1hi
		s := Step{Agent: NoRank, Origin: NoRank}

		// Two negotiation phases: the lower half proposes first
		// (Algorithm 1 lines 14–24).
		for phase := 0; phase < 2; phase++ {
			if (phase == 0) == (h1lo < h2lo) { // this rank's half proposes
				if st.wantsAgent(h2lo, h2hi, nil) {
					attempts++
				}
				if s.Agent = int32(findAgent(p, g, t, phase, r, h2lo, h2hi)); s.Agent != NoRank {
					successes++
				}
			} else {
				s.Origin = int32(findOrigin(p, g, t, phase, r, h1lo, h1hi, h2lo, h2hi))
			}
		}

		// Algorithm 1 line 30: notify outgoing neighbors in h2 of the
		// selected agent; symmetrically absorb notifications from
		// incoming neighbors in h2. Content is advisory; the cost is
		// what matters here.
		for _, v := range within(g.Out(r), h2lo, h2hi) {
			p.Send(v, tags.NoteBase+t, noteBytes, nil, nil)
		}
		for range within(g.In(r), h2lo, h2hi) {
			p.Recv(mpirt.AnySource, tags.NoteBase+t)
		}

		// Descriptor exchange (Algorithm 1 lines 31–49).
		if s.Agent != NoRank {
			s.SendCount = int32(len(st.buf))
			d := &descMsg{sources: slices.Clone(st.buf), moved: st.offload(h2lo, h2hi, nil, nil)}
			p.Send(int(s.Agent), tags.DescBase+t, descMsgBytes(d), nil, d)
		}
		if s.Origin != NoRank {
			d := p.Recv(int(s.Origin), tags.DescBase+t).Meta.(*descMsg)
			st.onload(&s, d.sources, d.moved)
		}
		st.steps = append(st.steps, s)
	}

	// Final phase derivation, with sender announcements so each rank
	// learns its remainder-phase senders (the paper's I_on tracking).
	final := st.final(make([]int32, len(st.buf)+len(st.copies)+len(st.del)), make([]FinalSend, st.sendCount(nil)))
	plan = &final
	for _, fs := range plan.FinalSends {
		p.Send(int(fs.Dst), tags.FinalNote, noteBytes, nil, finalNote{count: int(fs.Sources.Len)})
	}

	expect := g.InDegree(r) - len(st.copies) - int(plan.FinalSelfCopies.Len)
	senders := map[int32]bool{}
	for expect > 0 {
		msg := p.Recv(mpirt.AnySource, tags.FinalNote)
		expect -= msg.Meta.(finalNote).count
		senders[int32(msg.Src)] = true
	}
	if expect < 0 {
		panic(fmt.Sprintf("pattern: rank %d over-announced final edges by %d", r, -expect))
	}
	if len(senders) > 0 {
		plan.FinalRecvs = Run{int32(len(plan.Src)), int32(len(senders))}
		plan.Src = append(plan.Src, order.SortedKeys(senders)...)
	}
	return plan, attempts, successes
}

// candidatesOf returns, in preference order (weight desc, rank asc),
// the ranks in [clo, chi) sharing at least one outgoing neighbor with r
// inside the weight range [wlo, whi) — the active rows of matrix A. For
// an agent search both ranges are the opposite half; for an origin
// search candidates live in the opposite half while shared neighbors
// are counted in this rank's own half. The enumeration is the central
// builder's, scratch and cost rule included.
func candidatesOf(g *vgraph.Graph, r, clo, chi, wlo, whi int) []int {
	b := &builder{g: g}
	count, _ := b.enumeration(r, clo, chi, wlo, whi)
	cs := b.preferred(b.candidates(nil, proposer{r, count}, clo, chi, wlo, whi))
	ranks := make([]int, len(cs))
	for i, c := range cs {
		ranks[i] = int(c.a)
	}
	return ranks
}

// findAgent is Algorithm 2: propose to candidates in preference order,
// move on when dropped, and notify untried candidates once matched.
// h2 = [h2lo, h2hi) is the opposite half agents live in.
func findAgent(p *mpirt.Proc, g *vgraph.Graph, step, phase, r, h2lo, h2hi int) int {
	cands := candidatesOf(g, r, h2lo, h2hi, h2lo, h2hi)
	propTag, replyTag := tags.Prop(step, phase), tags.Reply(step, phase)
	for i, c := range cands {
		p.Send(c, propTag, signalBytes, nil, sigREQ)
		reply := p.Recv(c, replyTag)
		if reply.Meta.(int) == sigACCEPT {
			for _, rest := range cands[i+1:] {
				p.Send(rest, propTag, signalBytes, nil, sigEXIT)
			}
			return c
		}
	}
	return NoRank
}

// findOrigin is Algorithm 3: wait until every positive-weight candidate
// origin has spoken (REQ or EXIT), deferring requests until the best
// remaining candidate's message arrives, then accept it and drop the
// rest. h1 = [h1lo, h1hi) is this rank's own half (where shared
// outgoing neighbors are counted); h2 = [h2lo, h2hi) is the half
// origins live in.
func findOrigin(p *mpirt.Proc, g *vgraph.Graph, step, phase, r, h1lo, h1hi, h2lo, h2hi int) int {
	// Candidate origins live in h2 and are ranked by shared outgoing
	// neighbors inside this rank's own half — symmetric to the
	// proposers' weight, so both sides follow one global preference
	// order.
	cands := candidatesOf(g, r, h2lo, h2hi, h1lo, h1hi)

	propTag, replyTag := tags.Prop(step, phase), tags.Reply(step, phase)

	remaining := map[int]bool{}
	for _, c := range cands {
		remaining[c] = true
	}
	waiting := map[int]bool{}
	selected := NoRank
	pending := len(cands)

	decide := func() {
		if selected != NoRank {
			return
		}
		// The best remaining candidate is the earliest in preference
		// order still present.
		for _, c := range cands {
			if !remaining[c] {
				continue
			}
			if waiting[c] {
				selected = c
				p.Send(c, replyTag, signalBytes, nil, sigACCEPT)
				delete(waiting, c)
				// DROPs go out in sorted order: these are real sends, so
				// map-order iteration would perturb the runtime's event
				// order across otherwise identical runs and break
				// bit-exact chaos replay.
				for _, w := range order.SortedKeys(waiting) {
					p.Send(w, replyTag, signalBytes, nil, sigDROP)
					delete(waiting, w)
					delete(remaining, w)
				}
			}
			return // best remaining has not spoken yet: defer
		}
	}

	for pending > 0 {
		msg := p.Recv(mpirt.AnySource, propTag)
		pending--
		o := msg.Src
		switch msg.Meta.(int) {
		case sigREQ:
			if selected != NoRank {
				p.Send(o, replyTag, signalBytes, nil, sigDROP)
				delete(remaining, o)
				continue
			}
			waiting[o] = true
			decide()
		case sigEXIT:
			delete(remaining, o)
			decide()
		default:
			panic(fmt.Sprintf("pattern: rank %d got unexpected signal %v from %d", r, msg.Meta, o))
		}
	}
	return selected
}

// ChargeNeighborListExchange models the calculate_A cost shared by the
// Distance Halving and Common Neighbor pattern builders: a Bruck
// allgather of per-rank outgoing-neighbor lists in ⌈log2 n⌉ rounds with
// accumulating payload sizes. Payload content is not shipped — the
// graph is globally visible in-process — only the cost is real.
func ChargeNeighborListExchange(p *mpirt.Proc, g *vgraph.Graph) {
	n := p.Size()
	r := p.Rank()
	// acc[i] tracks whether rank i's list has been accumulated; we
	// only need the byte count, maintained incrementally.
	have := bitset.New(n)
	have.Add(r)
	bytesOf := func(rank int) int { return 8 * (g.OutDegree(rank) + 1) }
	accBytes := bytesOf(r)
	for dist := 1; dist < n; dist *= 2 {
		dst := (r - dist%n + n) % n
		src := (r + dist) % n
		p.Send(dst, tags.Exchange+dist, accBytes, nil, nil)
		p.Recv(src, tags.Exchange+dist)
		// In Bruck's algorithm the received block is the source's
		// accumulated prefix: ranks src, src+1, … up to dist entries.
		for k := 0; k < dist && k < n-1; k++ {
			o := (src + k) % n
			if !have.Has(o) {
				have.Add(o)
				accBytes += bytesOf(o)
			}
		}
	}
}
