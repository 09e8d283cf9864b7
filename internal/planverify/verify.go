package planverify

import (
	"cmp"
	"fmt"
	"math/bits"
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
	slices.SortFunc(filed, func(a, b chanOp) int {
		if a.ends != b.ends {
			return cmp.Compare(a.ends, b.ends)
		}
		return cmp.Compare(a.rest, b.rest)
	})
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
	cycle := s.findCycle(m)
	if cycle == nil {
		return nil
	}
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

// held is the symbolic execution's holdings: one open-addressed set of
// (rank, block) pairs, sized once for everything the plan can move.
type held struct {
	slots []uint64 // rank<<32 | block, plus one; 0 is empty
	shift uint
}

func newHeld(entries int) *held {
	width := uint(bits.Len(uint(2 * entries))) // load at most a half
	return &held{make([]uint64, 1<<width), 64 - width}
}

// slot returns where (rank, block) is or would go.
func (h *held) slot(rank int, block int32) (*uint64, uint64) {
	key := (uint64(rank)<<32 | uint64(uint32(block))) + 1
	for i := (key * 0x9E3779B97F4A7C15) >> h.shift; ; i = (i + 1) & uint64(len(h.slots)-1) {
		if h.slots[i] == key || h.slots[i] == 0 {
			return &h.slots[i], key
		}
	}
}

func (h *held) add(rank int, block int32) {
	slot, key := h.slot(rank, block)
	*slot = key
}

func (h *held) has(rank int, block int32) bool {
	slot, _ := h.slot(rank, block)
	return *slot != 0
}

// checkCompleteness symbolically executes the plan and proves that
// every graph edge receives exactly one delivery, that no rank ships a
// block its buffer does not hold, and that no delivery lands off-graph.
// What a rank starts out holding and where a block lands are the plan's
// layout's to say, not assumed. A rank's holdings grow only by its own
// waits, so every check depends on program order alone, and the ops run
// in op-number order: Verify calls this only once checkDeadlock has
// shown the rendezvous graph, whose edges include the eager ones,
// acyclic.
func (s *Schedule) checkCompleteness(m *matchState) []Finding {
	g := s.Plan.Graph
	n := g.N()
	// A rank holds what it owns and what its waits bring in: at most
	// every block of every matched send.
	entries := s.Plan.NumBlocks()
	for id, rref := range m.sendRecv {
		if rref != none { // only sends have an entry
			_, send := s.op(m, int32(id))
			entries += len(s.Plan.Blocks(send))
		}
	}
	holdings := newHeld(entries)
	for r := 0; r < n; r++ {
		for b, hi := s.Plan.Owned(r); b < hi; b++ {
			holdings.add(r, int32(b))
		}
	}
	// deliveries counts result-buffer deliveries per edge, the edges
	// numbered by out-list position (an n×n matrix is 800 MiB at
	// 10 240 ranks).
	outOff := make([]int, n+1)
	for r := 0; r < n; r++ {
		outOff[r+1] = outOff[r] + g.OutDegree(r)
	}
	deliveries := make([]int, outOff[n])
	var out []Finding
	deliver := func(b int32, dst, via int) {
		src, ok := s.Plan.Lands(b, dst)
		if !ok {
			why := fmt.Sprintf("edge %d→%d does not exist", src, dst)
			if s.Plan.Alltoall() {
				es, ed := s.Plan.Edge(b)
				why = fmt.Sprintf("it is the segment of edge %d→%d", es, ed)
			}
			out = append(out, Finding{InvCompleteness, via, fmt.Sprintf(
				"rank %d delivers block %d to %d but %s", via, b, dst, why)})
			return
		}
		j := g.IndexOfOut(src, dst)
		deliveries[outOff[src]+j]++
		if deliveries[outOff[src]+j] == 2 {
			out = append(out, Finding{InvCompleteness, via, fmt.Sprintf(
				"edge %d→%d delivered twice", src, dst)})
		}
	}
	for id := int32(0); id < int32(len(m.rank)); id++ {
		rank, op := s.op(m, id)
		switch op.Kind {
		case collective.OpSend:
			for _, b := range s.Plan.Blocks(op) {
				if !holdings.has(rank, b) {
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
					holdings.add(rank, b)
				}
			}
		case collective.OpCopy:
			b := s.Plan.Blocks(op)[0]
			if !holdings.has(rank, b) {
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
	for src := 0; src < n; src++ {
		for j, dst := range g.Out(src) {
			if deliveries[outOff[src]+j] == 0 {
				out = append(out, Finding{InvCompleteness, -1, fmt.Sprintf(
					"edge %d→%d never delivered", src, dst)})
			}
		}
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
