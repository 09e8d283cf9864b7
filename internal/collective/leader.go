package collective

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"nbrallgather/internal/order"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/vgraph"
)

// The leader-based algorithm is the hierarchical neighborhood allgather
// in the style of the paper's related work on large-message designs
// (Ghazimirsaeed et al., SC'20): per-node leaders gather their members'
// payloads, exchange combined per-node-pair messages, and distribute
// the incoming remote payloads. Intra-node edges bypass the hierarchy
// and go direct. With one leader per node this is the basic hierarchy;
// with several, node-pair traffic is spread across leaders by a
// longest-processing-time assignment (the published design's load-aware
// multi-leader mechanism), relieving the single leader's port
// bottleneck for bandwidth-bound messages.
//
// Under a placement (planReq.place: survivors renumbered densely but
// keeping their physical placement) leadership is re-elected: each
// node's leaders are its first k surviving ranks, so a dead leader's
// role moves to the next live rank of the node. With an avoid set, ranks
// whose port carries a fault are passed over whenever their node has an
// unimpaired leader candidate, so the heavy combined messages route
// through healthy ports. (A down node NIC impairs the whole node
// equally; such nodes only survive feasibility when all their edges
// stay intra-node, and then carry no leader traffic.)

// combined is one combined message: the listed sources' payloads to Dst.
type combined struct {
	Dst     int
	Sources []int
}

// lbPlan is one rank's routed role, the intermediate emitLeader turns
// into ops.
type lbPlan struct {
	// directSends / directRecvs are same-node edges (dst / src ranks).
	directSends []int
	directRecvs []int
	// gatherTo: leaders on this rank's node that need its payload.
	gatherTo []int
	// Leader-only fields.
	gatherFrom []int      // members whose payload this leader collects
	nodeSends  []combined // Dst = remote leader; Sources = node members shipped
	nodeRecvs  []int      // remote leaders sending combined node payloads
	distribute []combined // Dst = local member; Sources = its remote in-neighbors held here
	// selfDeliver: sources this leader received via the hierarchy that
	// are destined to itself.
	selfDeliver []int
	// fromLeaders: local leaders this member expects a distribution
	// message from.
	fromLeaders []int
}

// leaderTables routes the hierarchy: which leaders gather whom, which
// leader pair carries each node pair, who distributes to whom.
func leaderTables(g *vgraph.Graph, c topology.Cluster, k int, place []int, avoid []bool) ([]lbPlan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if g.N() > c.Ranks() {
		return nil, fmt.Errorf("collective: graph has %d ranks, cluster %d", g.N(), c.Ranks())
	}
	if k < 1 {
		return nil, fmt.Errorf("collective: leaders per node %d must be positive", k)
	}
	if avoid != nil && len(avoid) != g.N() {
		return nil, fmt.Errorf("collective: avoid set has %d entries for %d ranks", len(avoid), g.N())
	}
	if place != nil {
		if len(place) != g.N() {
			return nil, fmt.Errorf("collective: placement has %d entries for %d ranks", len(place), g.N())
		}
		seen := make(map[int]bool, len(place))
		for i, cr := range place {
			if cr < 0 || cr >= c.Ranks() {
				return nil, fmt.Errorf("collective: rank %d placed on cluster rank %d outside [0,%d)", i, cr, c.Ranks())
			}
			if seen[cr] {
				return nil, fmt.Errorf("collective: cluster rank %d placed twice", cr)
			}
			seen[cr] = true
		}
	}
	k, n := min(k, c.RanksPerNode()), g.N()
	nodeOf := func(r int) int {
		if place != nil {
			return c.NodeOf(place[r])
		}
		return c.NodeOf(r)
	}
	plans := make([]lbPlan, n)

	// pairSources[(x,y)] = distinct sources on node x with an edge
	// into node y (x != y); remoteIn[v] = v's inter-node in-neighbors.
	type pair struct{ x, y int }
	pairSources := map[pair][]int{}
	remoteIn := make([][]int, n)
	for u := 0; u < n; u++ {
		seenPair := map[pair]bool{}
		for _, v := range g.Out(u) {
			if nodeOf(u) == nodeOf(v) {
				plans[u].directSends = append(plans[u].directSends, v)
				plans[v].directRecvs = append(plans[v].directRecvs, u)
				continue
			}
			kp := pair{nodeOf(u), nodeOf(v)}
			if !seenPair[kp] {
				seenPair[kp] = true
				pairSources[kp] = append(pairSources[kp], u)
			}
			remoteIn[v] = append(remoteIn[v], u)
		}
	}
	// Assign pairs to leaders on both sides with a longest-first
	// greedy: heaviest pairs (most sources) first, each onto the
	// currently least-loaded leader of its node.
	keys := order.SortedKeysFunc(pairSources, func(a, b pair) bool {
		return cmp.Or(cmp.Compare(len(pairSources[b]), len(pairSources[a])), cmp.Compare(a.x, b.x), cmp.Compare(a.y, b.y)) < 0
	})
	// leaderRanks lists node ny's leader ranks that exist in the
	// communicator: its first k member ranks in communicator order
	// (identical to the base..base+k-1 block for identity placement).
	leaderRanks := func(ny int) []int {
		var ls []int
		for r := 0; r < n && len(ls) < k; r++ {
			if nodeOf(r) == ny {
				ls = append(ls, r)
			}
		}
		return ls
	}
	sendLoad := map[int]int{} // leader rank -> assigned segment count
	recvLoad := map[int]int{}
	pickLeader := func(node int, load map[int]int) int {
		// The least-loaded unimpaired leader candidate, first on ties;
		// only when a node's whole leader block is avoided, anyone's.
		best, bestKey := -1, [2]int{}
		for _, l := range leaderRanks(node) {
			key := [2]int{0, load[l]}
			if avoid != nil && avoid[l] {
				key[0] = 1
			}
			if best == -1 || key[0] < bestKey[0] || key[0] == bestKey[0] && key[1] < bestKey[1] {
				best, bestKey = l, key
			}
		}
		return best
	}
	type route struct{ srcLeader, dstLeader int }
	routes := map[pair]route{}
	for _, kp := range keys {
		w := len(pairSources[kp])
		sl := pickLeader(kp.x, sendLoad)
		dl := pickLeader(kp.y, recvLoad)
		sendLoad[sl] += w
		recvLoad[dl] += w
		routes[kp] = route{sl, dl}
	}

	// Gather: a member ships its payload once to each distinct source
	// leader that forwards it.
	gatherPairs := map[[2]int]bool{} // {member, leader}
	for _, kp := range keys {
		srcs := pairSources[kp]
		sl := routes[kp].srcLeader
		for _, u := range srcs {
			key := [2]int{u, sl}
			if u == sl || gatherPairs[key] {
				continue
			}
			gatherPairs[key] = true
			plans[u].gatherTo = append(plans[u].gatherTo, sl)
			plans[sl].gatherFrom = append(plans[sl].gatherFrom, u)
		}
	}

	// Node-pair exchange between the routed leaders. Deterministic
	// order: by (x, y).
	slices.SortFunc(keys, func(a, b pair) int { return cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.y, b.y)) })
	for _, kp := range keys {
		srcs := append([]int(nil), pairSources[kp]...)
		sort.Ints(srcs)
		rt := routes[kp]
		plans[rt.srcLeader].nodeSends = append(plans[rt.srcLeader].nodeSends,
			combined{Dst: rt.dstLeader, Sources: srcs})
		plans[rt.dstLeader].nodeRecvs = append(plans[rt.dstLeader].nodeRecvs, rt.srcLeader)
	}

	// Distribution: each destination-side leader forwards the remote
	// payloads it holds to the members needing them.
	for v := 0; v < n; v++ {
		if len(remoteIn[v]) == 0 {
			continue
		}
		sort.Ints(remoteIn[v])
		byLeader := map[int][]int{}
		for _, u := range remoteIn[v] {
			kp := pair{nodeOf(u), nodeOf(v)}
			dl := routes[kp].dstLeader
			byLeader[dl] = append(byLeader[dl], u)
		}
		for _, dl := range order.SortedKeys(byLeader) {
			srcs := byLeader[dl]
			sort.Ints(srcs)
			if dl == v {
				plans[v].selfDeliver = append(plans[v].selfDeliver, srcs...)
				continue
			}
			plans[dl].distribute = append(plans[dl].distribute, combined{Dst: v, Sources: srcs})
			plans[v].fromLeaders = append(plans[v].fromLeaders, dl)
		}
		sort.Ints(plans[v].selfDeliver)
		sort.Ints(plans[v].fromLeaders)
	}
	for r := range plans {
		p := &plans[r]
		sort.Ints(p.gatherTo)
		sort.Ints(p.gatherFrom)
		slices.SortFunc(p.nodeSends, func(a, b combined) int { return cmp.Compare(a.Dst, b.Dst) })
		sort.Ints(p.nodeRecvs)
		slices.SortFunc(p.distribute, func(a, b combined) int {
			return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Sources[0], b.Sources[0]))
		})
	}
	return plans, nil
}

// emitLeader converts the routed hierarchy into each rank's program:
// all four receive classes are posted up front, then direct sends,
// gathers, the packed node-pair shipments and the distributions proceed
// phase by phase with the waits between them.
func emitLeader(g *vgraph.Graph, c topology.Cluster, k int, place []int, avoid []bool) (*Plan, error) {
	tables, err := leaderTables(g, c, k, place, avoid)
	if err != nil {
		return nil, err
	}
	b := NewPlanBuilder(g, 0, 0)
	for r := range tables {
		t := &tables[r]
		for _, u := range t.directRecvs {
			b.Recv(u, tags.LBDirect, Deliver, u)
		}
		gather := b.Len()
		for _, u := range t.gatherFrom {
			b.Recv(u, tags.LBGather, 0, u)
		}
		node := b.Len()
		for _, l := range t.nodeRecvs {
			b.Recv(l, tags.LBNode, SelfDescribing|Packed)
		}
		dist := b.Len()
		for _, l := range t.fromLeaders {
			b.Recv(l, tags.LBDist, Deliver|SelfDescribing|Packed)
		}
		end := b.Len()
		for _, v := range t.directSends {
			b.Send(v, tags.LBDirect, Deliver, r)
		}
		for _, l := range t.gatherTo {
			b.Send(l, tags.LBGather, 0, r)
		}
		b.Wait(gather, node)
		for _, ns := range t.nodeSends {
			b.Send(ns.Dst, tags.LBNode, SelfDescribing|Packed, ns.Sources...)
		}
		b.Wait(node, dist)
		for _, d := range t.distribute {
			b.Send(d.Dst, tags.LBDist, Deliver|SelfDescribing|Packed, d.Sources...)
		}
		for _, src := range t.selfDeliver {
			b.Copy(src, Deliver)
		}
		b.Wait(dist, end)
		b.Wait(0, gather)
		b.EndRank()
	}
	return b.Plan(), nil
}
