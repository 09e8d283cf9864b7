package planverify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"nbrallgather/internal/collective"
)

// matchState is the schedule's resolved send↔receive pairing plus the
// matching-discipline findings it produced. An op's number is its
// position in the plan — base[rank] + index, the order Plan stores and a
// (rank, index) scan visits — and every relation is a flat array over
// those numbers, −1 for none.
type matchState struct {
	base []int32 // number of each rank's first op; base[n] counts them all
	rank []int32 // by op number
	// sendRecv maps each matched send to the receive post it pairs
	// with; recvSend is the inverse. waits maps a receive post to the
	// wait completing it.
	sendRecv, recvSend, waits []int32
	exact                     bool // all ops paired, each on a channel of its own, no wildcard: what Plan.Slots describes
	findings                  []Finding
}

const none = -1

func (s *Schedule) newMatchState() *matchState {
	n := s.Plan.Graph.N()
	m := &matchState{base: make([]int32, n+1)}
	for r := 0; r < n; r++ {
		m.base[r+1] = m.base[r] + int32(len(s.Plan.Ops(r)))
	}
	ops := int(m.base[n])
	flat := make([]int32, 4*ops)
	for i := range flat[ops:] {
		flat[ops+i] = none
	}
	m.rank, m.sendRecv, m.recvSend, m.waits = flat[:ops], flat[ops:2*ops], flat[2*ops:3*ops], flat[3*ops:]
	for r := 0; r < n; r++ {
		for id := m.base[r]; id < m.base[r+1]; id++ {
			m.rank[id] = int32(r)
		}
	}
	return m
}

// op returns op id and the rank it belongs to.
func (s *Schedule) op(m *matchState, id int32) (int, *collective.PlanOp) {
	r := int(m.rank[id])
	return r, &s.Plan.Ops(r)[id-m.base[r]]
}

// chanOp files a send or an exact-source receive under its channel.
// Sorted, the list reads destination by destination and, within one,
// channel by channel: a channel's sends in op order, then its receives.
type chanOp struct {
	ends uint64 // dst<<32 | src
	rest int64  // tag<<33 | receive<<32 | op number
}

func fileOp(src, dst int32, tag int16, recv, id int32) chanOp {
	return chanOp{uint64(uint32(dst))<<32 | uint64(uint32(src)), int64(tag)<<33 | int64(recv)<<32 | int64(id)}
}

func (c chanOp) dst() int         { return int(int32(c.ends >> 32)) }
func (c chanOp) src() int         { return int(int32(c.ends)) }
func (c chanOp) tag() int         { return int(c.rest >> 33) }
func (c chanOp) recv() bool       { return c.rest>>32&1 != 0 }
func (c chanOp) id() int32        { return int32(uint32(c.rest)) }
func (c chanOp) on(d chanOp) bool { return c.ends == d.ends && c.tag() == d.tag() }

// byChannel sorts filed, which is in op order, by (ends, rest): stable
// counting passes by source, then by destination (a peer outside [0, n)
// counts as n, as its uint32 does), leave only a rank pair's own ops out
// of order, which an insertion pass puts in (tag, receive, op) order.
func byChannel(filed []chanOp, n int) {
	count, tmp := make([]int, n+2), make([]chanOp, len(filed))
	pass := func(to, from []chanOp, shift uint) {
		clear(count)
		for _, c := range from {
			count[min(uint32(c.ends>>shift), uint32(n))+1]++
		}
		for k := range n {
			count[k+1] += count[k]
		}
		for _, c := range from {
			k := min(uint32(c.ends>>shift), uint32(n))
			to[count[k]], count[k] = c, count[k]+1
		}
	}
	pass(tmp, filed, 0)  // by source
	pass(filed, tmp, 32) // by destination
	for i := 1; i < len(filed); i++ {
		c, j := filed[i], i
		for ; j > 0 && (c.ends < filed[j-1].ends || c.ends == filed[j-1].ends && c.rest < filed[j-1].rest); j-- {
			filed[j] = filed[j-1]
		}
		filed[j] = c
	}
}

// Verify runs every invariant check and returns the findings in
// deterministic order: matching, deadlock, completeness, loadbound,
// then avoidance. An empty slice means the plan is proven clean.
func (s *Schedule) Verify() []Finding {
	var out []Finding
	m := s.match()
	out = append(out, m.findings...)
	slot, recvs := s.Plan.Slots()
	out = append(out, s.checkSlots(m, slot, recvs)...)
	cycle := s.checkDeadlock(m)
	out = append(out, cycle...)
	if len(cycle) == 0 {
		// A rendezvous cycle implies the eager order is unusable too;
		// completeness is only meaningful on an orderable plan.
		out = append(out, s.checkCompleteness(m)...)
	}
	out = append(out, s.checkLoadBounds()...)
	out = append(out, s.checkAvoidance(m)...)
	return out
}

// match pairs every send with a receive. mpirt (like MPI) never allows
// two in-flight messages on the same (src,dst,tag) within an epoch —
// the collectives guarantee channel uniqueness by construction — so a
// duplicate channel use is reported as a tag collision and paired
// FIFO. Wildcard receives match leftover sends by tag in (src, post)
// order and must be unambiguous unless every candidate message is
// self-describing.
func (s *Schedule) match() *matchState {
	m := s.newMatchState()
	n := s.Plan.Graph.N()
	filed := make([]chanOp, 0, m.base[n])
	var wilds []int32
	for r := 0; r < n; r++ {
		ops := s.Plan.Ops(r)
		for i := range ops {
			op, id := &ops[i], m.base[r]+int32(i)
			switch op.Kind {
			case collective.OpSend:
				filed = append(filed, fileOp(int32(r), op.Peer, op.Tag, 0, id))
			case collective.OpRecv:
				if op.Peer == collective.AnySource {
					wilds = append(wilds, id)
				} else {
					filed = append(filed, fileOp(op.Peer, int32(r), op.Tag, 1, id))
				}
			case collective.OpWait:
				for j, hi := op.Waits(); j < hi; j++ {
					if j >= len(ops) || ops[j].Kind != collective.OpRecv {
						m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
							"wait at op %d names op %d, which is not a receive", i, j)})
					} else if m.waits[m.base[r]+int32(j)] != none {
						m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
							"receive at op %d is waited on twice", j)})
					} else {
						m.waits[m.base[r]+int32(j)] = id
					}
				}
			}
		}
	}
	byChannel(filed, n)
	// Pair channel by channel, FIFO. Collisions are reported in the
	// order their channels first appear in the scan above, which is the
	// order of each channel's least op number.
	type collision struct {
		seen int32
		Finding
	}
	var collisions []collision
	for lo := 0; lo < len(filed); {
		k := filed[lo]
		mid, hi := lo, lo
		for ; hi < len(filed) && filed[hi].on(k); hi++ {
			if !filed[hi].recv() {
				mid = hi + 1
			}
		}
		seen := k.id()
		if mid < hi {
			seen = min(seen, filed[mid].id())
		}
		if mid-lo > 1 {
			collisions = append(collisions, collision{seen, Finding{InvMatching, k.src(), fmt.Sprintf(
				"tag collision: %d sends on channel %d→%d tag %d within one epoch",
				mid-lo, k.src(), k.dst(), k.tag())}})
		}
		if hi-mid > 1 {
			collisions = append(collisions, collision{seen, Finding{InvMatching, k.dst(), fmt.Sprintf(
				"tag collision: %d receives posted on channel %d→%d tag %d within one epoch",
				hi-mid, k.src(), k.dst(), k.tag())}})
		}
		for a, b := lo, mid; a < mid && b < hi; a, b = a+1, b+1 {
			m.sendRecv[filed[a].id()], m.recvSend[filed[b].id()] = filed[b].id(), filed[a].id()
		}
		lo = hi
	}
	m.exact = len(wilds) == 0 && len(collisions) == 0
	slices.SortStableFunc(collisions, func(a, b collision) int { return cmp.Compare(a.seen, b.seen) })
	for _, c := range collisions {
		m.findings = append(m.findings, c.Finding)
	}
	// Wildcard receives: a destination's sends are one run of the list
	// in (src, tag, op) order, so its unmatched sends of one tag come up
	// in (src, send index) order; the first of them is paired.
	for _, w := range wilds {
		r, wop := s.op(m, w)
		at, _ := slices.BinarySearchFunc(filed, uint64(r)<<32, func(c chanOp, ends uint64) int { return cmp.Compare(c.ends, ends) })
		first, srcs, last, described := int32(none), 0, none, true
		for _, c := range filed[at:] {
			if c.dst() != r {
				break
			}
			if c.recv() || c.tag() != int(wop.Tag) || m.sendRecv[c.id()] != none {
				continue
			}
			if first == none {
				first = c.id()
			}
			if c.src() != last {
				srcs, last = srcs+1, c.src()
			}
			if _, send := s.op(m, c.id()); send.Flags&collective.SelfDescribing == 0 {
				described = false
			}
		}
		if first == none {
			continue // reported below as an unmatched receive
		}
		if srcs > 1 && !described {
			m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
				"wildcard receive tag %d is ambiguous: %d candidate sources and payloads are not self-describing",
				wop.Tag, srcs)})
		}
		m.sendRecv[first], m.recvSend[w] = w, first
	}
	// Sweep for unmatched and disagreeing ops in (rank, index) order.
	// The interpreter acts on the receive op's flags and, unless the
	// message is self-describing, on its block list, so both must equal
	// the matched send's.
	for id := int32(0); id < m.base[n]; id++ {
		r, op := s.op(m, id)
		switch op.Kind {
		case collective.OpSend:
			if m.sendRecv[id] == none {
				m.exact = false
				m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
					"send %d→%d tag %d is never received", r, op.Peer, op.Tag)})
			}
		case collective.OpRecv:
			report := func(format string, args ...any) {
				m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
					"receive posted by %d from %s tag %d ", r, peerString(int(op.Peer)), op.Tag) +
					fmt.Sprintf(format, args...)})
			}
			if m.recvSend[id] == none {
				m.exact = false
				report("is never satisfied")
			} else if _, send := s.op(m, m.recvSend[id]); send.Flags != op.Flags {
				report("has flags %03b, its send %03b", op.Flags, send.Flags)
			} else if want, got := s.Plan.Blocks(op), s.Plan.Blocks(send); op.Flags&collective.SelfDescribing == 0 && !slices.Equal(want, got) {
				report("expects blocks %v, its send carries %v", want, got)
			}
			if m.waits[id] == none {
				report("is never waited on")
			}
		}
	}
	return m
}

// checkSlots holds the plan's own static matching (Plan.Slots' slot and
// recvs, what a pass hints the runtime with) against this one, op for op, so
// that two matchers cannot disagree silently: a receive's slot is its
// ordinal on its rank, a send's the slot of its receive, and the plan has
// a table exactly when the matching is exact.
func (s *Schedule) checkSlots(m *matchState, slot, recvs []int32) (out []Finding) {
	if (slot != nil) != m.exact {
		return []Finding{{InvMatching, -1, fmt.Sprintf("plan has slot hints: %v, its matching is exact: %v", slot != nil, m.exact)}}
	}
	for r := 0; slot != nil && r < len(recvs); r++ {
		ord := int32(0)
		for id := m.base[r]; id < m.base[r+1]; id++ {
			want := int32(none)
			switch _, op := s.op(m, id); op.Kind {
			case collective.OpRecv:
				want, ord = ord, ord+1
			case collective.OpSend:
				want = slot[m.sendRecv[id]]
			}
			if slot[id] != want {
				out = append(out, Finding{InvMatching, r, fmt.Sprintf("%s is hinted slot %d, its matching says %d", s.opString(m, id), slot[id], want)})
			}
		}
		if recvs[r] != ord {
			out = append(out, Finding{InvMatching, r, fmt.Sprintf("plan counts %d receives, rank %d posts %d", recvs[r], r, ord)})
		}
	}
	return out
}

func peerString(p int) string {
	if p == collective.AnySource {
		return "*"
	}
	return fmt.Sprintf("%d", p)
}

// successors returns op id's successors in the rendezvous
// happens-before graph, in order; there are at most two, so the graph is
// never materialised. Program order always applies; a matched send
// precedes the receiver's wait; and the receive post precedes the
// send's completion (the static analogue of a blocking send waiting for
// its partner).
func (s *Schedule) successors(m *matchState, id int32) (succ [2]int32, k int) {
	if id+1 < m.base[m.rank[id]+1] {
		succ[0], k = id+1, 1
	}
	if rref := m.sendRecv[id]; rref != none {
		if wref := m.waits[rref]; wref != none {
			succ[k], k = wref, k+1
		}
	} else if sref := m.recvSend[id]; sref != none {
		succ[k], k = sref, k+1
	}
	return succ, k
}

// checkDeadlock proves the rendezvous happens-before graph acyclic, or
// reports one cycle canonically (rotated to start at its minimum
// (rank, index) op). This is strictly stronger than what the eager
// runtime needs, matching the runtime wait-for-graph detector's
// rendezvous-mode semantics.
func (s *Schedule) checkDeadlock(m *matchState) []Finding {
	if s.acyclic(m) {
		return nil
	}
	cycle := s.findCycle(m)
	// Rotate so the minimum (rank, idx) op, the least number, leads.
	first := slices.Index(cycle, slices.Min(cycle))
	var parts []string
	for i := 0; i <= len(cycle); i++ {
		parts = append(parts, s.opString(m, cycle[(first+i)%len(cycle)]))
	}
	return []Finding{{InvDeadlock, int(m.rank[cycle[first]]), fmt.Sprintf(
		"happens-before cycle under rendezvous semantics: %s",
		strings.Join(parts, " → "))}}
}

// acyclic proves the rendezvous happens-before graph acyclic by running
// every rank's program counter over a worklist: a rank passes an op once
// the op's cross-rank predecessors have been passed — a send's receive
// post, the matched sends of the receives a wait completes (at[r]
// resumes a wait's scan) — and passing a receive or a send wakes the
// rank of its send or of its receive's wait. All ops pass exactly when
// the graph is acyclic; the order they pass in is a topological order.
func (s *Schedule) acyclic(m *matchState) bool {
	n, left := len(m.base)-1, len(m.rank)
	scratch := make([]int32, 4*n)
	pc, at, queued, work := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:3*n]
	wake := func(r int32) {
		if queued[r] == 0 {
			queued[r], work = 1, append(work, r)
		}
	}
	for r := range pc {
		pc[r] = m.base[r]
		wake(int32(r))
	}
	passed := func(id int32) bool { return id < pc[m.rank[id]] }
	for len(work) > 0 {
		r := work[len(work)-1]
		work, queued[r] = work[:len(work)-1], 0
		ops := s.Plan.Ops(int(r))
	run:
		for ; pc[r] < m.base[r+1]; pc[r], at[r], left = pc[r]+1, 0, left-1 {
			id := pc[r]
			switch op := &ops[id-m.base[r]]; op.Kind {
			case collective.OpSend:
				if rref := m.sendRecv[id]; rref != none {
					if !passed(rref) {
						break run
					}
					if wref := m.waits[rref]; wref != none {
						wake(m.rank[wref])
					}
				}
			case collective.OpRecv:
				if sref := m.recvSend[id]; sref != none {
					wake(m.rank[sref])
				}
			case collective.OpWait:
				lo, hi := op.Waits()
				for j := max(lo, int(at[r])); j < min(hi, len(ops)); j++ {
					if rref := m.base[r] + int32(j); m.waits[rref] == id && m.recvSend[rref] != none && !passed(m.recvSend[rref]) {
						at[r] = int32(j)
						break run
					}
				}
			}
		}
	}
	return left == 0
}

// findCycle returns the op numbers of one cycle of the rendezvous
// happens-before graph (in cycle order), or nil if it is acyclic.
// Iterative colored DFS from every op in number order keeps the answer
// deterministic.
func (s *Schedule) findCycle(m *matchState) []int32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(m.rank))
	parent := make([]int32, len(m.rank))
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	for start := range color {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{int32(start), 0})
		color[start] = gray
		parent[start] = none
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if succ, k := s.successors(m, f.node); f.next < k {
				t := succ[f.next]
				f.next++
				switch color[t] {
				case white:
					color[t] = gray
					parent[t] = f.node
					stack = append(stack, frame{t, 0})
				case gray:
					// Back edge f.node → t closes a cycle.
					cycle := []int32{t}
					for v := f.node; v != t; v = parent[v] {
						cycle = append(cycle, v)
					}
					// Reverse into forward cycle order t → … → f.node.
					slices.Reverse(cycle[1:])
					return cycle
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// checkCompleteness symbolically executes the plan and proves that
// every graph edge receives exactly one delivery, that no rank ships a
// block its buffer does not hold, and that no delivery lands off-graph.
// What a rank starts out holding and where a block lands are the plan's
// layout's to say, not assumed. A rank's holdings grow only by its own
// waits and are read only by its own sends and copies, so every check
// depends on program order alone, and the ops run in op-number order,
// rank after rank: Verify calls this only once checkDeadlock has shown
// the rendezvous graph, whose edges include the eager ones, acyclic.
// The walked rank's state is stamps, (rank+1)<<32: holder[b] while it
// holds block b; got[u], plus u's deliveries, while u is its in-neighbor.
func (s *Schedule) checkCompleteness(m *matchState) []Finding {
	g := s.Plan.Graph
	n, nb := g.N(), s.Plan.NumBlocks()
	stamps := make([]int64, nb+n)
	holder, got := stamps[:nb], stamps[nb:]
	var out []Finding
	deliver := func(b int32, dst, via int) {
		src, to := int(b), dst
		if s.Plan.Alltoall() {
			src, to = s.Plan.Edge(b)
		}
		if to != dst || got[src]>>32 != int64(dst+1) {
			why := fmt.Sprintf("edge %d→%d does not exist", src, dst)
			if s.Plan.Alltoall() {
				why = fmt.Sprintf("it is the segment of edge %d→%d", src, to)
			}
			out = append(out, Finding{InvCompleteness, via, fmt.Sprintf(
				"rank %d delivers block %d to %d but %s", via, b, dst, why)})
			return
		}
		if got[src]++; uint32(got[src]) == 2 {
			out = append(out, Finding{InvCompleteness, via, fmt.Sprintf(
				"edge %d→%d delivered twice", src, dst)})
		}
	}
	var missing []uint64 // src<<32 | dst of each edge never delivered
	for rank := 0; rank < n; rank++ {
		me := int64(rank+1) << 32
		for b, hi := s.Plan.Owned(rank); b < hi; b++ {
			holder[b] = me
		}
		for _, u := range g.In(rank) {
			got[u] = me
		}
		ops := s.Plan.Ops(rank)
		for i := range ops {
			op, id := &ops[i], m.base[rank]+int32(i)
			switch op.Kind {
			case collective.OpSend:
				for _, b := range s.Plan.Blocks(op) {
					if holder[b] != me {
						out = append(out, Finding{InvCompleteness, rank, fmt.Sprintf(
							"rank %d sends block %d to %d (tag %d) before holding it",
							rank, b, op.Peer, op.Tag)})
					}
				}
			case collective.OpWait:
				for j, hi := op.Waits(); j < hi; j++ {
					rref := m.base[rank] + int32(j)
					if rref >= m.base[rank+1] || m.recvSend[rref] == none || m.waits[rref] != id {
						continue // unmatched receive or stray wait, already reported
					}
					via, send := s.op(m, m.recvSend[rref])
					for _, b := range s.Plan.Blocks(send) {
						if send.Flags&collective.Deliver != 0 {
							deliver(b, rank, via)
						}
						holder[b] = me
					}
				}
			case collective.OpCopy:
				b := s.Plan.Blocks(op)[0]
				if holder[b] != me {
					out = append(out, Finding{InvCompleteness, rank, fmt.Sprintf(
						"rank %d copies block %d before holding it", rank, b)})
				}
				if op.Flags&collective.Deliver != 0 {
					deliver(b, rank, rank)
				} else if lo, hi := s.Plan.Owned(rank); int(b) < lo || int(b) >= hi {
					out = append(out, Finding{InvCompleteness, rank, fmt.Sprintf(
						"rank %d stages block %d, not its own", rank, b)})
				}
			}
		}
		for _, u := range g.In(rank) {
			if got[u] == me {
				missing = append(missing, uint64(u)<<32|uint64(rank))
			}
		}
	}
	slices.Sort(missing)
	for _, e := range missing {
		out = append(out, Finding{InvCompleteness, -1, fmt.Sprintf(
			"edge %d→%d never delivered", e>>32, uint32(e))})
	}
	return out
}

// checkAvoidance enforces the repair discipline when an avoid set is
// armed: an avoided rank never relays another rank's block (its sends
// carry only the blocks it owns), and never receives a forward
// (non-Deliver message) that would draft it into a relay role.
func (s *Schedule) checkAvoidance(m *matchState) []Finding {
	if s.Avoid == nil {
		return nil
	}
	var out []Finding
	for r, avoided := range s.Avoid {
		if !avoided {
			continue
		}
		ops := s.Plan.Ops(r)
		lo, hi := s.Plan.Owned(r)
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case collective.OpSend:
				for _, b := range s.Plan.Blocks(op) {
					if int(b) < lo || int(b) >= hi {
						out = append(out, Finding{InvAvoidance, r, fmt.Sprintf(
							"avoided rank %d relays block %d to %d (tag %d)",
							r, b, op.Peer, op.Tag)})
					}
				}
			case collective.OpRecv:
				sref := m.recvSend[m.base[r]+int32(i)]
				if sref == none {
					continue
				}
				if from, send := s.op(m, sref); send.Flags&collective.Deliver == 0 {
					out = append(out, Finding{InvAvoidance, r, fmt.Sprintf(
						"avoided rank %d receives a forward from %d (tag %d)",
						r, from, op.Tag)})
				}
			}
		}
	}
	return out
}
