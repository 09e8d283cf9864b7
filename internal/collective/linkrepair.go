// Link-aware repair for the fault-tolerant collective (ft.go): when the
// fabric carries link faults, the recovery loop consults end-state link
// health before rebuilding. Every decision reads netmodel's *final*
// health (t = +Inf) rather than any rank's current clock, so all
// survivors — who reach recovery at different virtual times — compute
// bit-identical verdicts: either the survivor graph is infeasible on
// the wounded fabric and every rank returns the same PartitionError, or
// an avoid set steers the rebuilt algorithm's relay roles away from
// impaired ranks.
//
// Feasibility is exact, not heuristic: every route out of a node
// crosses that node's one NIC and every route out of a group crosses
// its one uplink, so multi-hop relaying cannot bypass a down resource.
// A graph edge blocked end-to-end therefore can never be delivered, and
// a graph whose direct edges all pass can always be completed by the
// naive algorithm over exactly those edges — the graceful-degradation
// floor the repair loop falls back to when a rebuilt algorithm's relay
// schedule still crosses a cut (e.g. a CN share group straddling a
// partition).
package collective

import (
	"slices"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/vgraph"
)

// linkInfeasible checks every edge of the survivor-projected graph g2
// against end-state link health (alive maps shrunken rank → original
// rank, which is the netmodel's physical rank space). It returns the
// identical *mpirt.PartitionError every rank must surface when some
// edge can never be delivered — Src = Dst = -1 marks the repair-layer
// verdict — or nil when the graph is feasible. The scan order (source
// rank major, sorted out-neighbors) is canonical, so all ranks report
// the same first blocked edge's cut.
func linkInfeasible(m *netmodel.Model, g2 *vgraph.Graph, alive []int) error {
	if m == nil || !m.HasLinkFaults() {
		return nil
	}
	for u := 0; u < g2.N(); u++ {
		for _, v := range g2.Out(u) {
			if blk, bad := m.PathBlockedFinal(alive[u], alive[v]); bad {
				return &mpirt.PartitionError{
					Groups: append([]int(nil), blk.Groups...),
					Src:    -1, Dst: -1,
				}
			}
		}
	}
	return nil
}

// linkAvoidSet maps end-state rank impairment into the rebuild avoid
// set, indexed by shrunken rank: true when the survivor's port or its
// node's NIC carries a fault, so rebuilt patterns keep relay roles off
// it. Returns nil when no survivor is impaired (or no faults exist),
// which selects the unrestricted builders.
func linkAvoidSet(m *netmodel.Model, alive []int) []bool {
	if m == nil || !m.HasLinkFaults() {
		return nil
	}
	avoid := make([]bool, len(alive))
	for i, o := range alive {
		avoid[i] = m.ImpairedFinal(o)
	}
	if !slices.Contains(avoid, true) {
		return nil
	}
	return avoid
}
