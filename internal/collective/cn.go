package collective

import (
	"fmt"

	"nbrallgather/internal/bitset"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/order"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/tags"
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

// BuildCN constructs the Common Neighbor pattern: ranks form
// consecutive groups of K (consecutive ranks share sockets under dense
// placement, so group sharing is cheap), each group's members exchange
// payloads, and every common outgoing neighbor of the group receives
// one combined message from a delegate chosen round-robin among the
// members that list it as their own neighbor.
func BuildCN(g *vgraph.Graph, k int) (*CNPattern, error) {
	return BuildCNAvoiding(g, k, nil)
}

// BuildCNAvoiding constructs the Common Neighbor pattern while keeping
// avoided ranks out of every relay role — the link-aware repair path.
// An avoided rank (port or node-NIC fault) forms a singleton group: it
// neither shares its payload across the group (the share exchange may
// cross its wounded resource) nor delegates for anyone else, so its
// only sends are its own direct graph edges, which the repair layer
// has already checked for feasibility. The remaining ranks form
// consecutive groups of K among themselves, and delegate rotation
// prefers unimpaired contributors. A nil avoid slice is the
// unrestricted builder.
func BuildCNAvoiding(g *vgraph.Graph, k int, avoid []bool) (*CNPattern, error) {
	if k < 1 {
		return nil, fmt.Errorf("collective: common-neighbor group size %d must be positive", k)
	}
	n := g.N()
	if avoid != nil && len(avoid) != n {
		return nil, fmt.Errorf("collective: avoid set has %d entries for %d ranks", len(avoid), n)
	}
	p := &CNPattern{Graph: g, K: k, Plans: make([]CNPlan, n)}
	senders := make([]map[int]bool, n)
	for v := range senders {
		senders[v] = map[int]bool{}
	}
	// Partition ranks into groups: consecutive K-chunks, except that
	// avoided ranks are split out into singletons.
	var groups [][]int
	var cur []int
	for r := 0; r < n; r++ {
		if avoid != nil && avoid[r] {
			groups = append(groups, []int{r})
			continue
		}
		cur = append(cur, r)
		if len(cur) == k {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	// The group's destination set is the union of its members' outgoing
	// neighborhoods. Walking the union bitset ascending (with the
	// graph's presorted adjacency sets answering membership) replaces
	// the per-build map of contributor lists the old builder had to
	// collect and re-sort on every negotiation — that canonicalisation
	// now happens once, at graph construction. Each rank belongs to
	// exactly one group and destinations ascend, so Sends come out
	// sorted by destination without a per-member sort.
	dests := bitset.New(n)
	var dbuf, cs []int
	for _, group := range groups {
		dests.Clear()
		for _, r := range group {
			dests.Or(g.OutSet(r))
		}
		dbuf = dests.Elems(dbuf[:0])
		for i, v := range dbuf {
			cs = cs[:0]
			for _, r := range group {
				if g.OutSet(r).Has(v) {
					cs = append(cs, r)
				}
			}
			// Delegate rotates over the contributors so delivery load
			// spreads across the group; with an avoid set, rotation
			// runs over the unimpaired contributors when any exist.
			pool := cs
			if avoid != nil {
				healthy := make([]int, 0, len(cs))
				for _, c := range cs {
					if !avoid[c] {
						healthy = append(healthy, c)
					}
				}
				if len(healthy) > 0 {
					pool = healthy
				}
			}
			delegate := pool[i%len(pool)]
			dp := &p.Plans[delegate]
			dp.Sends = append(dp.Sends, pattern.FinalSend{Dst: v, Sources: append([]int(nil), cs...)})
			senders[v][delegate] = true
		}
		for _, r := range group {
			p.Plans[r].Group = group
		}
	}
	for v := 0; v < n; v++ {
		p.Plans[v].RecvFrom = order.SortedKeys(senders[v])
	}
	return p, nil
}

// BuildCNRank models one rank's share of the Common Neighbor pattern
// construction cost (the Fig. 8 comparator): the calculate_A
// neighbor-list allgather, an intra-group list exchange, and delegate
// announcements to receivers. It must be called from within an mpirt
// rank body by every rank, with a prebuilt CN pattern for the plan
// content.
func BuildCNRank(p *mpirt.Proc, pat *CNPattern) {
	g := pat.Graph
	r := p.Rank()
	pattern.ChargeNeighborListExchange(p, g)
	plan := &pat.Plans[r]
	listBytes := 8 * (g.OutDegree(r) + 1)
	for _, mbr := range plan.Group {
		if mbr != r {
			p.Send(mbr, tags.CNGroup, listBytes, nil, nil)
		}
	}
	for _, mbr := range plan.Group {
		if mbr != r {
			p.Recv(mbr, tags.CNGroup)
		}
	}
	for _, fs := range plan.Sends {
		p.Send(fs.Dst, tags.CNNote, 8, nil, len(fs.Sources))
	}
	expect := g.InDegree(r)
	for expect > 0 {
		msg := p.Recv(mpirt.AnySource, tags.CNNote)
		expect -= msg.Meta.(int)
	}
}
