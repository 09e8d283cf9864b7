package collective

import (
	"fmt"

	"nbrallgather/internal/pattern"
	"nbrallgather/internal/vgraph"
)

// CNPlan is one rank's plan under the Common Neighbor algorithm.
type CNPlan struct {
	// Group lists the rank's group members (including itself),
	// ascending.
	Group []int
	// Sends are the combined deliveries this rank is the delegate for,
	// sorted by destination; Sources are the group members whose
	// payload the message carries.
	Sends []pattern.FinalSend
	// RecvFrom lists the distinct ranks this rank receives combined
	// messages from, ascending.
	RecvFrom []int
}

// CNPattern is the full Common Neighbor plan for one (graph, K) pair.
type CNPattern struct {
	Graph *vgraph.Graph
	K     int
	Plans []CNPlan
	// NegRounds records, for affinity-built patterns, the candidate
	// representatives each rank negotiated with in each pairing round
	// (indexed [round][rank]; nil for non-representatives). The build
	// cost model replays it; nil for consecutive grouping.
	NegRounds [][][]int
}

// BuildCNAvoiding constructs the Common Neighbor pattern: ranks form
// consecutive groups of K (consecutive ranks share sockets under dense
// placement, so group sharing is cheap), each group's members exchange
// payloads, and every common outgoing neighbor of the group receives
// one combined message from a delegate chosen round-robin among the
// members that list it as their own neighbor. A non-nil avoid set
// keeps avoided ranks out of every relay role — the link-aware repair
// path. An avoided rank (port or node-NIC fault) forms a singleton
// group: it neither shares its payload across the group (the share
// exchange may cross its wounded resource) nor delegates for anyone
// else, so its only sends are its own direct graph edges, which the
// repair layer has already checked for feasibility. The remaining
// ranks form consecutive groups of K among themselves, and delegate
// rotation prefers unimpaired contributors.
func BuildCNAvoiding(g *vgraph.Graph, k int, avoid []bool) (*CNPattern, error) {
	if k < 1 {
		return nil, fmt.Errorf("collective: common-neighbor group size %d must be positive", k)
	}
	n := g.N()
	if avoid != nil && len(avoid) != n {
		return nil, fmt.Errorf("collective: avoid set has %d entries for %d ranks", len(avoid), n)
	}
	// Partition ranks into groups: consecutive K-chunks of the unavoided
	// ranks, then every avoided rank as a singleton — one arena, since
	// no plan depends on the order groups are visited in.
	ranks := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if avoid == nil || !avoid[r] {
			ranks = append(ranks, r)
		}
	}
	healthy := len(ranks)
	for r := 0; r < n; r++ {
		if avoid != nil && avoid[r] {
			ranks = append(ranks, r)
		}
	}
	var groups [][]int
	for lo := 0; lo < n; {
		hi := min(lo+k, healthy)
		if lo >= healthy {
			hi = lo + 1
		}
		groups = append(groups, ranks[lo:hi:hi])
		lo = hi
	}
	p := &CNPattern{Graph: g, K: k}
	assignDelegates(g, p, groups, avoid)
	return p, nil
}

// assignDelegates fills p.Plans from a partition of the ranks into
// groups, each ascending. Every outgoing neighbor of a group gets one
// combined message carrying the payloads of the members that list it
// (its contributors), from a delegate rotating over the contributors so
// delivery load spreads across the group; with an avoid set, rotation
// runs over the unimpaired contributors when any exist. A group's
// destinations come out of a merge of its members' sorted out-lists,
// ascending, so each rank's Sends ascend with no sort. Sources,
// Sends and RecvFrom are sub-slices of three per-build arenas.
func assignDelegates(g *vgraph.Graph, p *CNPattern, groups [][]int, avoid []bool) {
	n := g.N()
	p.Plans = make([]CNPlan, n)
	// Each edge u→v puts u into the Sources of exactly one send, its
	// group's message to v, so neither arena outgrows the edge count.
	// A send's Sources end where the next one's begin.
	srcs := make([]int, 0, g.Edges())
	type delegated struct {
		by, dst int32
		end     int
	}
	sends := make([]delegated, 0, g.Edges())
	var heads [][]int // per member, its out-neighbors not yet merged
	var pool []int
	for _, group := range groups {
		heads = heads[:0]
		for _, r := range group {
			heads = append(heads, g.Out(r))
			p.Plans[r].Group = group
		}
		for i := 0; ; i++ {
			v := n
			for _, h := range heads {
				if len(h) > 0 && h[0] < v {
					v = h[0]
				}
			}
			if v == n {
				break
			}
			lo := len(srcs)
			pool = pool[:0]
			for m, h := range heads {
				if len(h) > 0 && h[0] == v {
					heads[m] = h[1:]
					srcs = append(srcs, group[m])
					if avoid != nil && !avoid[group[m]] {
						pool = append(pool, group[m])
					}
				}
			}
			if len(pool) == 0 {
				pool = srcs[lo:]
			}
			sends = append(sends, delegated{int32(pool[i%len(pool)]), int32(v), len(srcs)})
		}
	}
	// Count passes carve the Sends and RecvFrom arenas. A delegate's
	// sends all come from its one group, already ascending; filling
	// RecvFrom by delegate rank makes every list ascend, and a group
	// gives a destination at most one delegate, so none repeats.
	nSends, nRecvs := make([]int, n), make([]int, n)
	for _, s := range sends {
		nSends[s.by]++
		nRecvs[s.dst]++
	}
	sendArena, recvArena := make([]pattern.FinalSend, len(sends)), make([]int, len(sends))
	for r := range p.Plans {
		if c := nSends[r]; c > 0 {
			p.Plans[r].Sends, sendArena = sendArena[:0:c], sendArena[c:]
		}
		if c := nRecvs[r]; c > 0 {
			p.Plans[r].RecvFrom, recvArena = recvArena[:0:c], recvArena[c:]
		}
	}
	lo := 0
	for _, s := range sends {
		pl := &p.Plans[s.by]
		pl.Sends = append(pl.Sends, pattern.FinalSend{Dst: int(s.dst), Sources: srcs[lo:s.end:s.end]})
		lo = s.end
	}
	for r := range p.Plans {
		for _, fs := range p.Plans[r].Sends {
			pl := &p.Plans[fs.Dst]
			pl.RecvFrom = append(pl.RecvFrom, r)
		}
	}
}
