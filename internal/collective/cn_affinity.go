package collective

import (
	"fmt"
	"sort"

	"nbrallgather/internal/bitset"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/vgraph"
)

// Affinity grouping, faithful to the collaborative mechanism of
// Ghazimirsaeed et al. [IPDPS'19]: instead of cutting the rank space
// into consecutive blocks, ranks pair with the partner sharing the most
// outgoing neighbors, then pairs pair with pairs, for log2(K) rounds —
// a hierarchical stable matching under the shared-neighbor weight, the
// same preference structure the Distance Halving agent selection uses.
// Groups built this way maximise combinable traffic, at the price of a
// group-formation negotiation whose cost Fig. 8 compares against the
// Distance Halving pattern creation.

// cnCluster is one in-progress affinity group.
type cnCluster struct {
	members []int
	out     *bitset.Set // union of members' outgoing neighbor sets
}

// BuildCNAffinity constructs a Common Neighbor pattern whose groups are
// formed by hierarchical shared-neighbor matching. K must be a power of
// two (the sweep uses 2, 4, 8). The returned pattern also records the
// per-round negotiation candidates used by the build cost model.
func BuildCNAffinity(g *vgraph.Graph, k int) (*CNPattern, error) {
	if k < 1 || k&(k-1) != 0 {
		return nil, fmt.Errorf("collective: affinity group size %d must be a power of two", k)
	}
	n := g.N()
	clusters, unions := make([]*cnCluster, n), bitset.Rows(n, n)
	for r := 0; r < n; r++ {
		for _, v := range g.Out(r) {
			unions[r].Add(v)
		}
		clusters[r] = &cnCluster{members: []int{r}, out: &unions[r]}
	}
	rounds := 0
	for s := 1; s < k; s *= 2 {
		rounds++
	}
	// negCands[round][rank] lists the candidate representatives rank
	// negotiated with in that round (nil if rank was not a
	// representative).
	negCands := make([][][]int, rounds)

	for round := 0; round < rounds; round++ {
		reps := make([]int, len(clusters)) // representative rank per cluster
		for i, c := range clusters {
			reps[i] = c.members[0]
		}
		type cand struct{ w, a, b int }
		var cands []cand
		// perRep[rep] lists the representatives rep may pair with;
		// clusters are disjoint, so ranks index them.
		perRep := make([][]int, n)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if w := clusters[i].out.AndCount(clusters[j].out); w > 0 {
					cands = append(cands, cand{w, i, j})
					perRep[reps[i]] = append(perRep[reps[i]], reps[j])
					perRep[reps[j]] = append(perRep[reps[j]], reps[i])
				}
			}
		}
		for _, l := range perRep {
			sort.Ints(l)
		}
		negCands[round] = perRep
		// Heaviest first, ties by (a, b): cands ascend by (a, b), so a
		// stable distribution by weight is that order with no sort.
		maxW := 0
		for _, c := range cands {
			maxW = max(maxW, c.w)
		}
		at := make([]int, maxW+2) // at[maxW-w+1] counts, then places, weight w
		for _, c := range cands {
			at[maxW-c.w+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		sorted := make([]cand, len(cands))
		for _, c := range cands {
			sorted[at[maxW-c.w]] = c
			at[maxW-c.w]++
		}
		taken := make([]bool, len(clusters))
		var next []*cnCluster
		for _, c := range sorted {
			if taken[c.a] || taken[c.b] {
				continue
			}
			taken[c.a], taken[c.b] = true, true
			a, b := clusters[c.a], clusters[c.b]
			// a's union is no longer read on its own: b joins it in place.
			merged := &cnCluster{members: append(append([]int(nil), a.members...), b.members...), out: a.out}
			sort.Ints(merged.members)
			merged.out.Or(b.out)
			next = append(next, merged)
		}
		for i, c := range clusters {
			if !taken[i] {
				next = append(next, c)
			}
		}
		clusters = next
	}

	groups := make([][]int, len(clusters))
	for i, c := range clusters {
		groups[i] = c.members
	}
	return &CNPattern{Plan: assignDelegates(g, groups, nil), NegRounds: negCands}, nil
}

// BuildCNAffinityRank models one rank's share of the affinity
// pattern-construction cost (the Fig. 8 comparator): the shared
// calculate_A neighbor-list allgather, one pairing negotiation round
// per group-doubling (REQ-or-EXIT out, ACCEPT-or-DROP back, mirroring
// the Distance Halving agent selection's message balance), an
// intra-group list merge per round, and delegate announcements to
// receivers. Must be called from within an mpirt rank body by every
// rank, with a pattern from BuildCNAffinity.
func BuildCNAffinityRank(p *mpirt.Proc, pat *CNPattern) {
	g := pat.Plan.Graph
	r := p.Rank()
	pattern.ChargeNeighborListExchange(p, g)

	for round, cands := range pat.NegRounds {
		mine := cands[r]
		// Pairing negotiation: one signal out and one back per
		// candidate representative (symmetric candidate lists).
		for _, c := range mine {
			p.Send(c, tags.CNPairBase+round, 8, nil, nil)
		}
		for range mine {
			p.Recv(mpirt.AnySource, tags.CNPairBase+round)
		}
	}
	// The plan names the rest: the rank's share sends go to the other
	// members of its final group, its delivery sends to the receivers
	// it delegates for, each carrying its contributors' blocks.
	ops := pat.Plan.Ops(r)
	// Intra-group merge: members ship their (grown) neighbor lists to
	// the rest of the final group, log2(K) wavefronts approximated as
	// one exchange with each other member.
	listBytes := 8 * (g.OutDegree(r) + 1)
	for _, op := range ops {
		if op.Kind == OpSend && op.Tag == tags.CNShare {
			p.Send(int(op.Peer), tags.CNMerge, listBytes, nil, nil)
		}
	}
	for _, op := range ops {
		if op.Kind == OpSend && op.Tag == tags.CNShare {
			p.Recv(int(op.Peer), tags.CNMerge)
		}
	}
	// Delegate announcements (receivers learn their senders).
	for _, op := range ops {
		if op.Kind == OpSend && op.Tag == tags.CNDeliv {
			p.Send(int(op.Peer), tags.CNAffNote, 8, nil, int(op.n))
		}
	}
	expect := g.InDegree(r)
	for expect > 0 {
		msg := p.Recv(mpirt.AnySource, tags.CNAffNote)
		expect -= msg.Meta.(int)
	}
}
