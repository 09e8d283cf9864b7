// Package collective implements the neighborhood allgather algorithms
// the paper evaluates:
//
//   - Naive — the default Open MPI behaviour: direct point-to-point
//     sends to every outgoing neighbor and receives from every incoming
//     neighbor, blind to topology;
//   - CommonNeighbor — the message-combining baseline of Ghazimirsaeed
//     et al. [IPDPS'19]: K-rank groups share their payloads and one
//     delegated member delivers a combined message per common outgoing
//     neighbor;
//   - DistanceHalving — the paper's contribution (Algorithm 4): the
//     halving phase relays growing buffers through negotiated agents,
//     then a remainder phase delivers the rest, mostly within sockets.
//
// Each algorithm is an emitter producing a Plan (plan.go); the one
// interpreter (interp.go) runs any plan against the mpirt runtime with
// real payload bytes (verified against each other in tests) or phantom
// payloads for paper-scale timing.
package collective

import (
	"fmt"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/vgraph"
)

// Message tags come from the internal/tags registry: each algorithm
// owns a disjoint tag space so mixed runs (e.g. verification
// back-to-back) cannot cross-match, and the tagdiscipline analyzer
// keeps raw tag literals out of this package.

// Op is one neighborhood allgather implementation, bound to a virtual
// topology at construction. Run performs the collective for the
// calling rank: it sends m bytes of sbuf to every outgoing neighbor and
// fills rbuf with indegree·m bytes, ordered by ascending incoming
// neighbor rank (MPI's buffer layout). In phantom mode sbuf and rbuf
// are ignored and may be nil.
type Op interface {
	Name() string
	Graph() *vgraph.Graph
	Run(p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte)
}

// checkUniform validates the uniform Run contract before delegating to
// the general RunV path.
func checkUniform(m int) {
	if m < 1 {
		panic(fmt.Sprintf("collective: message size %d must be positive", m))
	}
}

// planBase is what the four algorithms share: a name, the emitted plan
// the interpreter runs, and the memoised uniform counts.
type planBase struct {
	name string
	plan *Plan
	uc   ucCache
}

// Name implements Op.
func (a *planBase) Name() string { return a.name }

// Graph implements Op.
func (a *planBase) Graph() *vgraph.Graph { return a.plan.Graph }

// Plan returns the program the op runs. Read-only.
func (a *planBase) Plan() *Plan { return a.plan }

func (a *planBase) uniform(m int) []int { return a.uc.get(a.plan.Graph.N(), m) }

// Run implements Op: RunV with every count equal to m.
func (a *planBase) Run(p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte) {
	checkUniform(m)
	a.plan.run(p, sbuf, a.uniform(m), rbuf)
}

// RunV implements VOp.
func (a *planBase) RunV(p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte) {
	checkCounts(a.plan.Graph, counts)
	a.plan.run(p, sbuf, counts, rbuf)
}

// Naive is the direct point-to-point algorithm (default Open MPI):
// isend to every outgoing neighbor, irecv from every incoming neighbor,
// wait all.
type Naive struct{ planBase }

// NewNaive binds the naive algorithm to a graph.
func NewNaive(g *vgraph.Graph) *Naive {
	return &Naive{planBase{name: "naive", plan: emitNaive(g)}}
}

// DistanceHalving is the paper's algorithm (Algorithm 4; see emitDH).
type DistanceHalving struct {
	planBase
	l   int
	pat *pattern.Pattern
}

// NewDistanceHalving builds the communication pattern centrally for
// stop threshold l and binds the collective to it, consulting the
// installed plan cache (UsePlanCache) before negotiating.
func NewDistanceHalving(g *vgraph.Graph, l int) (*DistanceHalving, error) {
	return newDH(g, l, nil)
}

// newDH negotiates and emits (or fetches from the installed plan
// cache) the DH plan for (g, l, avoid).
func newDH(g *vgraph.Graph, l int, avoid []bool) (*DistanceHalving, error) {
	var pat *pattern.Pattern
	plan, err := cachedPlan(dhKey(g, l, pattern.PolicyLoadAware, avoid), func() (*Plan, error) {
		var err error
		if pat, err = pattern.BuildAvoiding(g, l, pattern.PolicyLoadAware, avoid); err != nil {
			return nil, err
		}
		return emitDH(pat), nil
	})
	if err != nil {
		return nil, err
	}
	return &DistanceHalving{planBase: planBase{name: "distance-halving", plan: plan}, l: l, pat: pat}, nil
}

// NewDistanceHalvingFromPattern binds the collective to an existing
// pattern (e.g. one produced by the distributed builder).
func NewDistanceHalvingFromPattern(pat *pattern.Pattern) *DistanceHalving {
	return &DistanceHalving{planBase: planBase{name: "distance-halving", plan: emitDH(pat)}, l: pat.L, pat: pat}
}

// Pattern returns the negotiated pattern the plan was emitted from, or
// nil when the plan came out of the plan cache.
func (a *DistanceHalving) Pattern() *pattern.Pattern { return a.pat }
