package collective

import (
	"fmt"
	"math/bits"
	"slices"

	"nbrallgather/internal/sweep"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/vgraph"
)

// CNPattern is an affinity-grouped Common Neighbor build: its plan and
// the negotiation the build cost model replays.
type CNPattern struct {
	Plan *Plan
	// NegRounds records the candidate representatives each rank
	// negotiated with in each pairing round (indexed [round][rank]; nil
	// for non-representatives).
	NegRounds [][][]int
}

// BuildCNAvoiding emits the Common Neighbor plan: ranks form
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
func BuildCNAvoiding(g *vgraph.Graph, k int, avoid []bool) (*Plan, error) {
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
	groups := make([][]int, 0, (healthy+k-1)/k+n-healthy)
	for lo := 0; lo < n; {
		hi := min(lo+k, healthy)
		if lo >= healthy {
			hi = lo + 1
		}
		groups = append(groups, ranks[lo:hi:hi])
		lo = hi
	}
	return assignDelegates(g, groups, avoid), nil
}

// cnSplit, set only by tests, is sweep.SplitNever or SplitAlways to
// override the grain of assignDelegates' split.
var cnSplit int8

// delegated is one group's message to dst, sent by a delegate member:
// its sources end at srcs[end].
type delegated struct{ by, dst, end int32 }

// assignDelegates emits the plan over a partition of the ranks into
// groups, each ascending. Every outgoing neighbor of a group gets one
// combined message carrying the payloads of the members that list it
// (its contributors), from a delegate rotating over them so delivery
// load spreads across the group: the group's i-th destination, ascending,
// goes to contributor i mod their count — over the unimpaired ones, with
// an avoid set, when any exist. Each rank's program: the share phase
// exchanges own blocks within the group (forwards: the payload extends
// the receiver's holdings), then the delegates ship packed
// self-describing deliveries. When sweep.Split splits the ranks, the
// group pass runs as two runs of groups, the second's sources and sends
// after the first's out-edges.
func assignDelegates(g *vgraph.Graph, groups [][]int, avoid []bool) *Plan {
	n, e := g.N(), g.Edges()
	// Each edge u→v puts u into the sources of exactly one send, its
	// group's message to v, so neither list outgrows the edge count. A
	// send's sources end where the next one's begin. Per rank, its group,
	// and its sends' count (one slot spare: the counts become bounds).
	srcs, groupOf, nSends := make([]int32, e), make([]int32, n), make([]int32, n+1)
	// pass runs the group pass over groups, numbered from gi, whose
	// sources start at srcs[end]: it fills their runs of srcs, and appends
	// every send and its delegate to sends. recvs counts, per destination,
	// the sends.
	pass := func(gi int, groups [][]int, end int32, sends []delegated) (_ []delegated, recvs []int32) {
		// Per destination, its contributor count, then its run's next free
		// slot; a bit per destination the group reaches. Zero between groups.
		perDst, marks := make([]int32, 2*n+1), make([]uint64, (n+63)/64)
		at, recvs := perDst[:n], perDst[n:]
		var healthy []int32
		for i, group := range groups {
			first, last := len(marks), -1 // the marked words
			for _, r := range group {
				groupOf[r] = int32(gi + i)
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
					k := at[v]
					at[v] = end
					end += k
					sends = append(sends, delegated{dst: int32(v), end: end})
					recvs[v]++
				}
				marks[w] = 0
			}
			// Members fill the runs in group order, so each ascends.
			for _, r := range group {
				for _, v := range g.Out(r) {
					srcs[at[v]] = int32(r)
					at[v]++
				}
			}
			for i := range sends[from:] {
				s := &sends[from+i]
				at[s.dst] = 0
				pool := srcs[lo:s.end]
				if avoid != nil {
					healthy = slices.DeleteFunc(append(healthy[:0], pool...), func(r int32) bool { return avoid[r] })
					if len(healthy) > 0 {
						pool = healthy
					}
				}
				s.by = pool[uint32(i)%uint32(len(pool))] // a 32-bit divide costs a fraction of a 64-bit one
				nSends[s.by]++
				lo = s.end
			}
		}
		return sends, recvs
	}
	sends, nRecvs := make([]delegated, 0, e), []int32(nil)
	if !sweep.Split(n, cnSplit) {
		sends, nRecvs = pass(0, groups, 0, sends)
	} else {
		// A run's sends are at most its out-edges.
		cut, ranks, end := 0, 0, int32(0)
		for ; cut < len(groups) && 2*ranks < n; cut++ {
			for _, r := range groups[cut] {
				ranks, end = ranks+1, end+int32(g.OutDegree(r))
			}
		}
		upper, recvs := sends[end:end], []int32(nil)
		sweep.Both(func() { sends, nRecvs = pass(0, groups[:cut], 0, sends) }, func() { upper, recvs = pass(cut, groups[cut:], end, upper) })
		for v, k := range recvs {
			nRecvs[v] += k
		}
		sends = append(sends, upper...)
	}
	ops := 2 * len(sends) // a delivery's send and its receive
	for _, group := range groups {
		ops += 2 * len(group) * len(group) // per member: its share receives and sends, two waits at most
	}
	// Summed, the counts bound each rank's run of mine (its sends, by
	// destination: they come from its one group, ascending) and of from
	// (the delegates sending to it, ascending), filled from the back.
	for r := 1; r <= n; r++ {
		nSends[r] += nSends[r-1]
		nRecvs[r] += nRecvs[r-1]
	}
	mine, from := make([]int32, len(sends)), make([]int32, len(sends))
	for i := len(sends) - 1; i >= 0; i-- {
		nSends[sends[i].by]--
		mine[nSends[sends[i].by]] = int32(i)
	}
	for r := n - 1; r >= 0; r-- {
		for _, i := range mine[nSends[r]:nSends[r+1]] {
			v := sends[i].dst
			nRecvs[v]--
			from[nRecvs[v]] = int32(r)
		}
	}
	const deliv = Deliver | SelfDescribing | Packed
	b := NewPlanBuilder(g, ops, e)
	pl := b.pl
	for r := 0; r < n; r++ {
		group := groups[groupOf[r]]
		for _, m := range group {
			if m != r {
				b.add(OpRecv, 0, m, tags.CNShare, span{uint32(m), 1})
			}
		}
		shares := b.Len()
		for _, m := range group {
			if m != r {
				b.add(OpSend, 0, m, tags.CNShare, span{uint32(r), 1})
			}
		}
		b.Wait(0, shares)
		lo := b.Len()
		for _, d := range from[nRecvs[r]:nRecvs[r+1]] {
			b.add(OpRecv, deliv, int(d), tags.CNDeliv, span{uint32(len(pl.arena)), 0})
		}
		hi := b.Len()
		for _, i := range mine[nSends[r]:nSends[r+1]] {
			s, run := sends[i], int32(0)
			if i > 0 {
				run = sends[i-1].end
			}
			sp := span{uint32(srcs[run]), 1}
			if s.end-run > 1 {
				sp = span{uint32(len(pl.arena)), uint32(s.end - run)}
				pl.arena = append(pl.arena, srcs[run:s.end]...)
			}
			b.add(OpSend, deliv, int(s.dst), tags.CNDeliv, sp)
		}
		b.Wait(lo, hi)
		b.EndRank()
	}
	return b.Plan()
}
