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
// Each algorithm is one row of the algorithm table (emit.go): an
// emitter producing a Plan (plan.go). The one interpreter (interp.go)
// runs any plan against the mpirt runtime with real payload bytes
// (verified against each other in tests) or phantom payloads for
// paper-scale timing.
package collective

import (
	"fmt"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/topology"
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
// are ignored and may be nil. Begin is Run for a rank the event loop
// steps (mpirt.Stepper): it resets ps to the same pass, for the caller
// to Step. RunV is the allgatherv form (MPI_Neighbor_allgatherv): every
// rank contributes counts[rank] bytes, counts is identical on all ranks
// (MPI's recvcounts), and rbuf concatenates the incoming neighbors'
// payloads in ascending rank order, each at its own size. Run is RunV
// with memoised uniform counts.
type Op interface {
	Name() string
	Graph() *vgraph.Graph
	Run(p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte)
	Begin(ps *Pass, p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte)
	RunV(p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte)
}

// checkUniform validates the uniform Run contract before delegating to
// the general RunV path.
func checkUniform(m int) {
	if m < 1 {
		panic(fmt.Sprintf("collective: message size %d must be positive", m))
	}
}

// bound is what every op shares: a name, the emitted plan the
// interpreter runs, the pattern it was emitted from when one was
// negotiated here, and the memoised uniform counts.
type bound struct {
	name string
	plan *Plan
	pat  *pattern.Pattern
	uc   ucCache
}

// Name implements Op.
func (a *bound) Name() string { return a.name }

// Graph implements Op.
func (a *bound) Graph() *vgraph.Graph { return a.plan.Graph }

// Plan returns the program the op runs. Read-only.
func (a *bound) Plan() *Plan { return a.plan }

// Pattern returns the Distance Halving pattern the plan was emitted
// from: nil for other algorithms.
func (a *bound) Pattern() *pattern.Pattern { return a.pat }

func (a *bound) uniform(m int) []int { return a.uc.get(a.plan.NumBlocks(), m) }

// Allgather is a row of the algorithm table bound to a virtual
// topology: the op every allgather constructor returns. It keeps the
// request its plan answers, which a repair re-emits from (ft.go).
type Allgather struct {
	bound
	algo *algorithm
	req  planReq
}

// Run implements Op: RunV with every count equal to m.
func (a *Allgather) Run(p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte) {
	checkUniform(m)
	a.plan.run(p, sbuf, a.uniform(m), rbuf)
}

// Begin implements Op.
func (a *Allgather) Begin(ps *Pass, p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte) {
	checkUniform(m)
	ps.Reset(a.plan, p, sbuf, a.uniform(m), rbuf)
}

// RunV implements Op.
func (a *Allgather) RunV(p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte) {
	checkCounts(a.plan.Graph, counts)
	a.plan.run(p, sbuf, counts, rbuf)
}

// op binds an op of this row to an emitted plan.
func (a *algorithm) op(pl *Plan, pat *pattern.Pattern, q planReq) *Allgather {
	return &Allgather{bound: bound{name: a.title(q), plan: pl, pat: pat}, algo: a, req: q}
}

// bind emits the row's plan for q and binds an op to it. Safe inside
// rank bodies.
func (a *algorithm) bind(q planReq) (*Allgather, error) {
	pl, pat, err := a.emit(q)
	if err != nil {
		return nil, err
	}
	return a.op(pl, pat, q), nil
}

// New binds the named algorithm (see Algos) to graph g mapped rank for
// rank onto cluster c. A zero prm field selects the conformance-suite default.
// A non-nil avoid set (indexed by rank) marks the ranks the plan keeps
// out of relay roles: the op a repair over g would run.
func New(name string, g *vgraph.Graph, c topology.Cluster, prm PlanParams, avoid []bool) (*Allgather, error) {
	a, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return a.bind(request(g, c, prm, avoid))
}

// The constructors below take a knob as given: zero is an error, not a default.

// NewNaive binds the direct point-to-point algorithm (default Open
// MPI): isend to every outgoing neighbor, irecv from every incoming
// neighbor, wait all.
func NewNaive(g *vgraph.Graph) *Allgather {
	return row("naive").op(emitNaive(g), nil, planReq{g: g})
}

// NewDistanceHalving builds the paper's communication pattern
// (Algorithm 4; see emitDH) centrally for stop threshold l and binds
// the collective to it.
func NewDistanceHalving(g *vgraph.Graph, l int) (*Allgather, error) {
	return row("dh").bind(planReq{g: g, prm: PlanParams{L: l}})
}

// NewDistanceHalvingFromPattern binds the collective to an existing
// pattern (e.g. one produced by the distributed builder).
func NewDistanceHalvingFromPattern(pat *pattern.Pattern) *Allgather {
	return row("dh").op(emitDH(pat), pat, planReq{g: pat.Graph, prm: PlanParams{L: pat.L}})
}

// NewCommonNeighbor builds the message-combining baseline (see
// BuildCNAvoiding) for group size k and binds the collective to it.
func NewCommonNeighbor(g *vgraph.Graph, k int) (*Allgather, error) {
	return row("cn").bind(planReq{g: g, prm: PlanParams{CNGroup: k}})
}

// NewCommonNeighborAffinity builds the affinity-grouped Common Neighbor
// collective (the [IPDPS'19]-faithful baseline the harness sweeps).
func NewCommonNeighborAffinity(g *vgraph.Graph, k int) (*Allgather, error) {
	pat, err := BuildCNAffinity(g, k)
	if err != nil {
		return nil, err
	}
	return row("cn").op(pat.Plan, nil, planReq{g: g, prm: PlanParams{CNGroup: k}}), nil
}

// NewLeaderBased builds the single-leader hierarchy (see emitLeader).
func NewLeaderBased(g *vgraph.Graph, c topology.Cluster) (*Allgather, error) {
	return NewLeaderBasedK(g, c, 1)
}

// NewLeaderBasedK builds the hierarchy with up to k leaders per node
// (the node's first k ranks); node-pair traffic is spread across them
// by descending segment count onto the least-loaded leader.
func NewLeaderBasedK(g *vgraph.Graph, c topology.Cluster, k int) (*Allgather, error) {
	return row("leader").bind(planReq{g: g, c: c, prm: PlanParams{Leaders: k}})
}
