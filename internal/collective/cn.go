package collective

import (
	"fmt"
	"math/bits"
	"slices"

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
	ranks, healthy := make([]int, 0, n), 0
	for _, avoided := range []bool{false, true} {
		healthy = len(ranks) // the unavoided, once both passes ran
		for r := 0; r < n; r++ {
			if (avoid != nil && avoid[r]) == avoided {
				ranks = append(ranks, r)
			}
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
// (its contributors), from a delegate rotating over them so delivery
// load spreads across the group: the group's i-th destination, ascending,
// goes to contributor i mod their count — over the unimpaired ones, with
// an avoid set, when any exist. Sources, Sends and RecvFrom are
// sub-slices of three per-build arenas.
func assignDelegates(g *vgraph.Graph, p *CNPattern, groups [][]int, avoid []bool) {
	n := g.N()
	p.Plans = make([]CNPlan, n)
	// Each edge u→v puts u into the Sources of exactly one send, its
	// group's message to v, so neither arena outgrows the edge count.
	// A send's Sources end where the next one's begin.
	srcs := make([]int, g.Edges())
	type delegated struct{ by, dst, end int32 }
	sends := make([]delegated, 0, g.Edges())
	// Per destination, its contributor count, then its run's next free
	// slot; a bit per destination the group reaches. Zero between groups.
	at, marks := make([]int32, n), make([]uint64, (n+63)/64)
	nSends, nRecvs := make([]int32, n), make([]int32, n)
	var healthy []int
	end := 0
	for _, group := range groups {
		first, last := len(marks), -1 // the marked words
		for _, r := range group {
			p.Plans[r].Group = group
			for _, v := range g.Out(r) {
				at[v]++
				marks[v>>6] |= 1 << (v & 63)
				first, last = min(first, v>>6), max(last, v>>6)
			}
		}
		// The group's destinations, ascending, each with its run of srcs.
		from, lo := len(sends), end
		for w := first; w <= last; w++ {
			for m := marks[w]; m != 0; m &= m - 1 {
				v := w<<6 + bits.TrailingZeros64(m)
				c := int(at[v])
				at[v] = int32(end)
				end += c
				sends = append(sends, delegated{dst: int32(v), end: int32(end)})
				nRecvs[v]++
			}
			marks[w] = 0
		}
		// Members fill the runs in group order, so each ascends.
		for _, r := range group {
			for _, v := range g.Out(r) {
				srcs[at[v]] = r
				at[v]++
			}
		}
		for i := range sends[from:] {
			s := &sends[from+i]
			at[s.dst] = 0
			pool := srcs[lo:s.end]
			if avoid != nil {
				healthy = slices.DeleteFunc(append(healthy[:0], pool...), func(r int) bool { return avoid[r] })
				if len(healthy) > 0 {
					pool = healthy
				}
			}
			s.by = int32(pool[uint32(i)%uint32(len(pool))]) // a 32-bit divide costs a fraction of a 64-bit one
			nSends[s.by]++
			lo = int(s.end)
		}
	}
	// The counts carve the Sends and RecvFrom arenas. A delegate's sends
	// come from its one group, ascending; filling RecvFrom by delegate
	// rank makes each list ascend, and none repeats.
	sendArena, recvArena := make([]pattern.FinalSend, len(sends)), make([]int, len(sends))
	for r := range p.Plans {
		if c := int(nSends[r]); c > 0 {
			p.Plans[r].Sends, sendArena = sendArena[:0:c], sendArena[c:]
		}
		if c := int(nRecvs[r]); c > 0 {
			p.Plans[r].RecvFrom, recvArena = recvArena[:0:c], recvArena[c:]
		}
	}
	lo := 0
	for _, s := range sends {
		pl := &p.Plans[s.by]
		pl.Sends = append(pl.Sends, pattern.FinalSend{Dst: int(s.dst), Sources: srcs[lo:s.end:s.end]})
		lo = int(s.end)
	}
	for r := range p.Plans {
		for _, fs := range p.Plans[r].Sends {
			pl := &p.Plans[fs.Dst]
			pl.RecvFrom = append(pl.RecvFrom, r)
		}
	}
}
