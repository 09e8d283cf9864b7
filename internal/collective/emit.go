package collective

import (
	"fmt"

	"nbrallgather/internal/pattern"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// PlanParams are the emitters' knobs. A zero field selects the
// conformance-suite choice: this is the one place algorithm defaults
// live.
type PlanParams struct {
	// L is the DH halving stop threshold (default: ranks per socket).
	L int
	// Policy is the DH agent-negotiation policy (default
	// pattern.PolicyLoadAware, the zero value).
	Policy pattern.Policy
	// CNGroup is the Common Neighbor group size K (default 3).
	CNGroup int
	// Leaders is the leader count per node (default 1).
	Leaders int
}

func (prm PlanParams) resolve(c topology.Cluster) PlanParams {
	if prm.L == 0 {
		prm.L = c.L()
	}
	if prm.CNGroup == 0 {
		prm.CNGroup = 3
	}
	if prm.Leaders == 0 {
		prm.Leaders = 1
	}
	return prm
}

// Emit negotiates algo over g (mapped rank for rank onto c) and emits
// its plan, from scratch — no cache consultation. A non-nil avoid set
// selects the link-aware repair builders.
func Emit(algo string, g *vgraph.Graph, c topology.Cluster, prm PlanParams, avoid []bool) (*Plan, error) {
	prm = prm.resolve(c)
	switch algo {
	case "naive":
		return emitNaive(g), nil
	case "dh":
		pat, err := pattern.BuildAvoiding(g, prm.L, prm.Policy, avoid)
		if err != nil {
			return nil, err
		}
		return emitDH(pat), nil
	case "cn":
		pat, err := BuildCNAvoiding(g, prm.CNGroup, avoid)
		if err != nil {
			return nil, err
		}
		return emitCN(pat), nil
	case "leader":
		return emitLeader(g, c, prm.Leaders, nil, avoid)
	}
	return nil, fmt.Errorf("collective: unknown plan algorithm %q", algo)
}

// emitNaive: post a receive per in-neighbor, send the own block to
// every out-neighbor, wait in post order.
func emitNaive(g *vgraph.Graph) *Plan {
	b := NewPlanBuilder(g, 2*g.Edges()+g.N(), 0)
	for r := 0; r < g.N(); r++ {
		for _, u := range g.In(r) {
			b.Recv(u, tags.Naive, Deliver, u)
		}
		for _, v := range g.Out(r) {
			b.Send(v, tags.Naive, Deliver, r)
		}
		b.Wait(0, g.InDegree(r))
		b.EndRank()
	}
	return b.Plan()
}

// emitDH is the paper's Algorithm 4 over a negotiated pattern. The hold
// buffer is the pattern's BufSources order, own block staged first.
// Each halving step ships the buffer as held before that step's
// arrival — a prefix of the hold order, in place — to the agent while
// merging the origin's; the remainder phase packs one self-describing
// delivery per destination.
func emitDH(pat *pattern.Pattern) *Plan {
	const final = Deliver | SelfDescribing | Packed
	ops, blocks := 0, 0
	for r := range pat.Plans {
		plan := &pat.Plans[r]
		ops += 2 + len(plan.FinalRecvs) + len(plan.FinalSends) + len(plan.FinalSelfCopies)
		for t := range plan.Steps {
			ops += len(plan.Steps[t].SelfCopies)
			if plan.Steps[t].Origin != pattern.NoRank {
				ops += 2
			}
			if plan.Steps[t].Agent != pattern.NoRank {
				ops++
			}
		}
		blocks += len(plan.BufSources)
		for _, fs := range plan.FinalSends {
			blocks += len(fs.Sources)
		}
	}
	b := NewPlanBuilder(pat.Graph, ops, blocks)
	for r := range pat.Plans {
		b.Hold(r, pat.Plans[r].BufSources)
	}
	for r := range pat.Plans {
		plan := &pat.Plans[r]
		b.Copy(r, 0)
		for t := range plan.Steps {
			st := &plan.Steps[t]
			recv := b.Len()
			if st.Origin != pattern.NoRank {
				b.Recv(st.Origin, tags.DHStep+t, 0, st.RecvSources...)
			}
			posted := b.Len()
			if st.Agent != pattern.NoRank {
				b.Send(st.Agent, tags.DHStep+t, 0, plan.BufSources[:st.SendCount]...)
			}
			b.Wait(recv, posted)
			for _, src := range st.SelfCopies {
				b.Copy(src, Deliver)
			}
		}
		lo := b.Len()
		for _, sender := range plan.FinalRecvs {
			b.Recv(sender, tags.DHFinal, final)
		}
		hi := b.Len()
		for _, fs := range plan.FinalSends {
			b.Send(fs.Dst, tags.DHFinal, final, fs.Sources...)
		}
		for _, src := range plan.FinalSelfCopies {
			b.Copy(src, Deliver)
		}
		b.Wait(lo, hi)
		b.EndRank()
	}
	return b.Plan()
}

// emitCN: the share phase exchanges own blocks within each K-group
// (forwards: the payload extends the receiver's holdings), then
// delegates ship packed self-describing deliveries.
func emitCN(pat *CNPattern) *Plan {
	const deliv = Deliver | SelfDescribing | Packed
	ops, blocks := 0, 0
	for r := range pat.Plans {
		plan := &pat.Plans[r]
		ops += 2*len(plan.Group) + len(plan.RecvFrom) + len(plan.Sends)
		for _, fs := range plan.Sends {
			blocks += len(fs.Sources)
		}
	}
	b := NewPlanBuilder(pat.Graph, ops, blocks)
	for r := range pat.Plans {
		plan := &pat.Plans[r]
		for _, m := range plan.Group {
			if m != r {
				b.Recv(m, tags.CNShare, 0, m)
			}
		}
		shares := b.Len()
		for _, m := range plan.Group {
			if m != r {
				b.Send(m, tags.CNShare, 0, r)
			}
		}
		b.Wait(0, shares)
		lo := b.Len()
		for _, src := range plan.RecvFrom {
			b.Recv(src, tags.CNDeliv, deliv)
		}
		hi := b.Len()
		for _, fs := range plan.Sends {
			b.Send(fs.Dst, tags.CNDeliv, deliv, fs.Sources...)
		}
		b.Wait(lo, hi)
		b.EndRank()
	}
	return b.Plan()
}
