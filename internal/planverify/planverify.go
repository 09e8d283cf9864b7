// Package planverify is the static plan verifier: it takes an emitted
// collective.Plan (the send/receive/copy program each rank of a
// neighborhood allgather or alltoall plan executes — any row of
// collective's algorithm table, including the avoid-set repair
// variants) plus the cluster topology, and proves four invariants
// about the plan symbolically, without executing it on the runtime:
//
//  1. delivery completeness — every graph edge receives the block that
//     lands on it exactly once (an allgather rank's block at each
//     out-neighbor, an alltoall segment at its one destination),
//     tracking forwarding through agents, delegates, and leaders (no
//     loss, no duplicate delivery), and no rank ships a block its buffer
//     does not hold;
//  2. matching discipline — every send pairs with exactly one receive
//     on (src, dst, tag), no tag collisions within the epoch, and
//     wildcard receives are unambiguous;
//  3. deadlock-freedom — the plan's happens-before graph is acyclic
//     under rendezvous semantics (the static counterpart of the
//     runtime's wait-for-graph detector; a violation prints the cycle
//     canonically, minimum rank first);
//  4. static load accounting — bytes charged per netmodel resource
//     (send port, node NIC, group uplink, honoring avoid sets) with
//     max/min and max/mean link-load ratios, cross-checked against the
//     perfmodel cost equations' message-count terms.
//
// The schedule is not a model of the plan: it wraps the very
// collective.Plan the interpreter executes (collective's emitters are
// the only code that knows how an algorithm becomes ops), so what
// Verify proves and what Load counts is the object that runs, and the
// static per-resource byte charges equal mpirt.Report traffic
// bit-for-bit on clean runs.
package planverify

import (
	"fmt"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// Schedule is one plan under verification: the plan itself plus the
// cluster it is mapped onto rank for rank and the per-block payload
// sizes.
type Schedule struct {
	// Algo names the algorithm (an Algos name).
	Algo    string
	Cluster topology.Cluster
	// Plan holds each rank's ops in program order.
	Plan *collective.Plan
	// Counts is the per-block payload size in bytes: per source rank for
	// an allgather plan (the allgatherv counts argument), per edge in
	// collective.EdgeCounts order for an alltoall plan.
	Counts []int
	// Avoid is the repair avoid set the plan was built for (nil for
	// the unrestricted builders). Verification additionally checks the
	// avoidance discipline when set.
	Avoid []bool
}

// Params selects the emitters' knobs; the zero value resolves to the
// conformance-suite choices, so Extract(algo, g, c, counts, nil,
// Params{}) verifies exactly the plans the conformance matrix executes.
type Params = collective.PlanParams

// Algos lists the extractable algorithms in canonical order.
func Algos() []string { return collective.Algos() }

// Extract emits one algorithm's plan over graph g mapped rank-for-rank
// onto cluster c and wraps it for verification with per-source payload
// counts. A non-nil avoid set selects the repair builders and arms the
// avoidance checks.
func Extract(algo string, g *vgraph.Graph, c topology.Cluster, counts []int, avoid []bool, prm Params) (*Schedule, error) {
	n := g.N()
	if len(counts) != n {
		return nil, fmt.Errorf("planverify: %d counts for %d ranks", len(counts), n)
	}
	if n > c.Ranks() {
		return nil, fmt.Errorf("planverify: graph has %d ranks, cluster only %d", n, c.Ranks())
	}
	if avoid != nil && len(avoid) != n {
		return nil, fmt.Errorf("planverify: avoid set has %d entries for %d ranks", len(avoid), n)
	}
	op, err := collective.New(algo, g, c, prm, avoid)
	if err != nil {
		return nil, err
	}
	return &Schedule{Algo: algo, Cluster: c, Plan: op.Plan(), Counts: counts, Avoid: avoid}, nil
}

// ExtractAlltoall is Extract for algo's neighborhood alltoall form
// (collective.HasAlltoall), with per-edge payload counts in
// collective.EdgeCounts order.
func ExtractAlltoall(algo string, g *vgraph.Graph, c topology.Cluster, counts []int, prm Params) (*Schedule, error) {
	if g.N() > c.Ranks() {
		return nil, fmt.Errorf("planverify: graph has %d ranks, cluster only %d", g.N(), c.Ranks())
	}
	op, err := collective.NewAlltoall(algo, g, c, prm)
	if err != nil {
		return nil, err
	}
	if len(counts) != op.Plan().NumBlocks() {
		return nil, fmt.Errorf("planverify: %d counts for %d edges", len(counts), op.Plan().NumBlocks())
	}
	return &Schedule{Algo: algo, Cluster: c, Plan: op.Plan(), Counts: counts}, nil
}

// Invariant names, used as finding analyzers / SARIF rule IDs.
const (
	InvCompleteness = "completeness"
	InvMatching     = "matching"
	InvDeadlock     = "deadlock"
	InvLoadBound    = "loadbound"
	InvAvoidance    = "avoidance"
)

// Invariants lists every invariant with its one-line description, for
// the CLI's SARIF rule table.
func Invariants() map[string]string {
	return map[string]string{
		InvCompleteness: "every graph edge receives the block that lands on it exactly once through the plan's forwarding",
		InvMatching:     "every send pairs with exactly one receive on (src,dst,tag); no tag collisions; wildcards unambiguous",
		InvDeadlock:     "the plan's happens-before graph is acyclic under rendezvous semantics",
		InvLoadBound:    "static per-resource load respects the perfmodel message-count bounds",
		InvAvoidance:    "avoided ranks carry no relay role and receive no forwards",
	}
}

// Finding is one verified-invariant violation.
type Finding struct {
	// Invariant is one of the Inv* names.
	Invariant string
	// Rank anchors the finding to a rank when one applies (-1 for
	// schedule-global findings such as an undelivered edge).
	Rank int
	// Message is the canonical, deterministic description.
	Message string
}

func (f Finding) String() string {
	if f.Rank >= 0 {
		return fmt.Sprintf("[%s] rank %d: %s", f.Invariant, f.Rank, f.Message)
	}
	return fmt.Sprintf("[%s] %s", f.Invariant, f.Message)
}

// opString renders an op for cycle and matching messages.
func (s *Schedule) opString(m *matchState, id int32) string {
	r, op := s.op(m, id)
	switch op.Kind {
	case collective.OpSend:
		return fmt.Sprintf("rank %d send→%d tag %d", r, op.Peer, op.Tag)
	case collective.OpRecv:
		return fmt.Sprintf("rank %d recv←%s tag %d", r, peerString(int(op.Peer)), op.Tag)
	case collective.OpWait:
		lo, hi := op.Waits()
		if hi-lo == 1 {
			return fmt.Sprintf("rank %d wait#%d", r, lo)
		}
		return fmt.Sprintf("rank %d wait#%d..%d", r, lo, hi-1)
	case collective.OpCopy:
		return fmt.Sprintf("rank %d copy %d", r, s.Plan.Blocks(op)[0])
	}
	return fmt.Sprintf("rank %d op?", r)
}
