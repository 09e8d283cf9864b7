package collective

import (
	"fmt"

	"nbrallgather/internal/pattern"
	"nbrallgather/internal/plancache"
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

// planReq is one plan request, everything an emitter reads: graph g
// mapped onto cluster c through place (graph rank → cluster rank, nil =
// identity: the placement survivors keep after fail-stop recovery), the
// knobs, and the link-aware avoid set (by rank, nil for none) of ranks
// to keep out of relay roles.
type planReq struct {
	g     *vgraph.Graph
	c     topology.Cluster
	prm   PlanParams
	place []int
	avoid []bool
}

// emitFunc emits a request's plan, with the DH pattern if it built one.
type emitFunc func(planReq) (*Plan, *pattern.Pattern, error)

// algorithm is one row of the algorithm table: everything that differs
// between two algorithms. New, PlanKey, BuildPlan, Algos and the
// repair path (ft.go) all read it, so a new algorithm is one row.
type algorithm struct {
	// name is what requests, conformance cases and cache keys call it.
	name string
	// knob sets the PlanParams field a plan request's one integer means
	// (nil: the algorithm has none).
	knob func(PlanParams, int) PlanParams
	// title is the bound op's Name().
	title func(planReq) string
	// key is the cache key's Topo — a salt keeping rows that hash the same
	// inputs apart, folded with what the row reads besides graph and avoid
	// set — and its Param, the knob. All by value: keying allocates nothing.
	key  func(planReq) (topo uint64, param int)
	emit emitFunc
	// alltoall emits the neighborhood alltoall form (nil: it has none).
	alltoall emitFunc
}

var algorithms = []algorithm{{
	name:     "naive",
	title:    func(planReq) string { return "naive" },
	key:      func(planReq) (uint64, int) { return plancache.HashWords(1), 0 },
	emit:     func(q planReq) (*Plan, *pattern.Pattern, error) { return emitNaive(q.g), nil, nil },
	alltoall: func(q planReq) (*Plan, *pattern.Pattern, error) { return emitNaiveAlltoall(q.g), nil, nil },
}, {
	// Consecutive grouping; avoided ranks re-group as singletons so the
	// share exchange never crosses their wounded resource.
	name:  "cn",
	knob:  func(prm PlanParams, k int) PlanParams { prm.CNGroup = k; return prm },
	title: func(q planReq) string { return fmt.Sprintf("common-neighbor(K=%d)", q.prm.CNGroup) },
	key:   func(q planReq) (uint64, int) { return plancache.HashWords(3, uint64(q.prm.CNGroup)), q.prm.CNGroup },
	emit: func(q planReq) (*Plan, *pattern.Pattern, error) {
		pl, err := BuildCNAvoiding(q.g, q.prm.CNGroup, q.avoid)
		return pl, nil, err
	},
}, {
	// The key depends only on the graph, the stop threshold, the agent
	// policy and the avoid set. Re-running the stable matching over a
	// survivor graph is the agent re-negotiation: a dead agent's origin
	// re-matches to a live rank of the opposite half, a step whose
	// opposite half is empty elects NoRank (its deliveries fall to the
	// direct final sends), and avoided ranks sit the matching out with
	// deliveries to them pinned to their original sources.
	name:  "dh",
	knob:  func(prm PlanParams, l int) PlanParams { prm.L = l; return prm },
	title: func(planReq) string { return "distance-halving" },
	key: func(q planReq) (uint64, int) {
		return plancache.HashWords(2, uint64(q.prm.L), uint64(q.prm.Policy)), q.prm.L
	},
	emit:     func(q planReq) (*Plan, *pattern.Pattern, error) { return negotiateDH(q, emitDH) },
	alltoall: func(q planReq) (*Plan, *pattern.Pattern, error) { return negotiateDH(q, emitDHAlltoall) },
}, {
	// The key folds the cluster's shape, which the hierarchy reads. A
	// survivor placement (an FT repair's) is not keyed: PlanKey's
	// requests never carry one, and a repair builds without the cache.
	name: "leader",
	knob: func(prm PlanParams, k int) PlanParams { prm.Leaders = k; return prm },
	title: func(q planReq) string {
		if k := min(q.prm.Leaders, q.c.RanksPerNode()); k > 1 {
			return fmt.Sprintf("leader-based(%d)", k)
		}
		return "leader-based"
	},
	key: func(q planReq) (uint64, int) {
		return plancache.HashWords(4, q.c.Fingerprint()), q.prm.Leaders
	},
	emit: func(q planReq) (*Plan, *pattern.Pattern, error) {
		pl, err := emitLeader(q.g, q.c, q.prm.Leaders, q.place, q.avoid)
		return pl, nil, err
	},
}}

func negotiateDH(q planReq, emit func(*pattern.Pattern) *Plan) (*Plan, *pattern.Pattern, error) {
	pat, err := pattern.BuildAvoiding(q.g, q.prm.L, q.prm.Policy, q.avoid)
	if err != nil {
		return nil, nil, err
	}
	return emit(pat), pat, nil
}

// row returns the table row called name, nil when there is none.
func row(name string) *algorithm {
	for i := range algorithms {
		if algorithms[i].name == name {
			return &algorithms[i]
		}
	}
	return nil
}

// lookup is row for a name that came from outside the package.
func lookup(name string) (*algorithm, error) {
	if a := row(name); a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("collective: unknown plan algorithm %q", name)
}

// request is the plan request over g and c whose zero knobs are the
// conformance-suite defaults.
func request(g *vgraph.Graph, c topology.Cluster, prm PlanParams, avoid []bool) planReq {
	return planReq{g: g, c: c, prm: prm.resolve(c), avoid: avoid}
}

// Algos lists the algorithms in canonical (table) order.
func Algos() []string {
	names := make([]string, len(algorithms))
	for i := range algorithms {
		names[i] = algorithms[i].name
	}
	return names
}

// HasAlltoall reports whether the named algorithm has an alltoall form.
func HasAlltoall(name string) bool { a := row(name); return a != nil && a.alltoall != nil }

// emitNaive: post a receive per in-neighbor, send every out-neighbor
// the block that lands there — the own block, or in the alltoall layout
// that neighbor's segment — and wait in post order.
func emitNaive(g *vgraph.Graph) *Plan {
	return emitDirect(NewPlanBuilder(g, 2*g.Edges()+g.N(), 0), tags.Naive)
}

func emitNaiveAlltoall(g *vgraph.Graph) *Plan {
	return emitDirect(NewAlltoallPlanBuilder(g, 2*g.Edges()+g.N(), 0), tags.A2ANaive)
}

func emitDirect(b *PlanBuilder, tag int) *Plan {
	g := b.pl.Graph
	for r := 0; r < g.N(); r++ {
		for _, u := range g.In(r) {
			b.Recv(u, tag, Deliver, b.pl.InBlock(u, r))
		}
		for _, v := range g.Out(r) {
			b.Send(v, tag, Deliver, b.pl.InBlock(r, v))
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
// delivery per destination. The pattern's source runs go into the
// plan's arena as they are.
func emitDH(pat *pattern.Pattern) *Plan {
	const final = Deliver | SelfDescribing | Packed
	ops, blocks := 0, 0
	for r := range pat.Plans {
		plan := &pat.Plans[r]
		ops += 2 + int(plan.FinalRecvs.Len) + len(plan.FinalSends) + int(plan.FinalSelfCopies.Len)
		for _, st := range plan.Steps {
			ops += int(st.Copies.Len)
			if st.Origin != pattern.NoRank {
				ops += 2
			}
			if st.Agent != pattern.NoRank {
				ops++
			}
		}
		blocks += int(plan.BufSources.Len)
		for _, fs := range plan.FinalSends {
			blocks += int(fs.Sources.Len)
		}
	}
	b := NewPlanBuilder(pat.Graph, ops, blocks)
	for r := range pat.Plans {
		b.Hold(r, pat.Plans[r].Sources(pat.Plans[r].BufSources))
	}
	for r := range pat.Plans {
		plan := &pat.Plans[r]
		b.Copy(r, 0)
		for t, st := range plan.Steps {
			recv := b.Len()
			if st.Origin != pattern.NoRank {
				b.add(OpRecv, 0, int(st.Origin), tags.DHStep+t, intern(b, plan.Sources(st.Recv), int(st.Origin)))
			}
			posted := b.Len()
			if st.Agent != pattern.NoRank {
				sent := pattern.Run{Off: plan.BufSources.Off, Len: st.SendCount}
				b.add(OpSend, 0, int(st.Agent), tags.DHStep+t, intern(b, plan.Sources(sent), r))
			}
			b.Wait(recv, posted)
			for _, src := range plan.Sources(st.Copies) {
				b.Copy(int(src), Deliver)
			}
		}
		lo := b.Len()
		for _, sender := range plan.Sources(plan.FinalRecvs) {
			b.Recv(int(sender), tags.DHFinal, final)
		}
		hi := b.Len()
		for _, fs := range plan.FinalSends {
			b.add(OpSend, final, int(fs.Dst), tags.DHFinal, intern(b, plan.Sources(fs.Sources), r))
		}
		for _, src := range plan.Sources(plan.FinalSelfCopies) {
			b.Copy(int(src), Deliver)
		}
		b.Wait(lo, hi)
		b.EndRank()
	}
	return b.Plan()
}
