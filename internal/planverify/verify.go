package planverify

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"nbrallgather/internal/collective"
)

// opRef addresses one op as (rank, index into that rank's op list).
type opRef struct {
	rank, idx int
}

func (s *Schedule) op(ref opRef) *collective.PlanOp { return &s.Plan.Ops(ref.rank)[ref.idx] }

// chanKey identifies a message channel within the epoch.
type chanKey struct {
	src, dst, tag int
}

// matchState is the schedule's resolved send↔receive pairing plus the
// matching-discipline findings it produced.
type matchState struct {
	// sendRecv maps each matched send to the receive post it pairs
	// with; recvSend is the inverse. waits maps a receive post to the
	// wait completing it.
	sendRecv map[opRef]opRef
	recvSend map[opRef]opRef
	waits    map[opRef]opRef
	findings []Finding
}

// Verify runs every invariant check and returns the findings in
// deterministic order: matching, deadlock, completeness, loadbound,
// then avoidance. An empty slice means the plan is proven clean.
func (s *Schedule) Verify() []Finding {
	var out []Finding
	m := s.match()
	out = append(out, m.findings...)
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
	m := &matchState{
		sendRecv: map[opRef]opRef{},
		recvSend: map[opRef]opRef{},
		waits:    map[opRef]opRef{},
	}
	sends := map[chanKey][]opRef{}
	recvs := map[chanKey][]opRef{}
	var order []chanKey
	seen := map[chanKey]bool{}
	note := func(k chanKey) {
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	type wildRef struct {
		ref opRef
		tag int
	}
	var wilds []wildRef
	n := s.Plan.Graph.N()
	for r := 0; r < n; r++ {
		ops := s.Plan.Ops(r)
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case collective.OpSend:
				k := chanKey{src: r, dst: int(op.Peer), tag: int(op.Tag)}
				note(k)
				sends[k] = append(sends[k], opRef{r, i})
			case collective.OpRecv:
				if op.Peer == collective.AnySource {
					wilds = append(wilds, wildRef{opRef{r, i}, int(op.Tag)})
					continue
				}
				k := chanKey{src: int(op.Peer), dst: r, tag: int(op.Tag)}
				note(k)
				recvs[k] = append(recvs[k], opRef{r, i})
			case collective.OpWait:
				for j, hi := op.Waits(); j < hi; j++ {
					rref := opRef{r, j}
					if j >= len(ops) || ops[j].Kind != collective.OpRecv {
						m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
							"wait at op %d names op %d, which is not a receive", i, j)})
					} else if _, dup := m.waits[rref]; dup {
						m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
							"receive at op %d is waited on twice", j)})
					} else {
						m.waits[rref] = opRef{r, i}
					}
				}
			}
		}
	}
	for _, k := range order {
		ss, rr := sends[k], recvs[k]
		if len(ss) > 1 {
			m.findings = append(m.findings, Finding{InvMatching, k.src, fmt.Sprintf(
				"tag collision: %d sends on channel %d→%d tag %d within one epoch",
				len(ss), k.src, k.dst, k.tag)})
		}
		if len(rr) > 1 {
			m.findings = append(m.findings, Finding{InvMatching, k.dst, fmt.Sprintf(
				"tag collision: %d receives posted on channel %d→%d tag %d within one epoch",
				len(rr), k.src, k.dst, k.tag)})
		}
		for i := 0; i < len(ss) && i < len(rr); i++ {
			m.sendRecv[ss[i]] = rr[i]
			m.recvSend[rr[i]] = ss[i]
		}
	}
	// Wildcard receives: collect each destination's unmatched sends by
	// tag and pair in deterministic (src, send index) order.
	for _, w := range wilds {
		var cands []opRef
		for _, k := range order {
			if k.dst != w.ref.rank || k.tag != w.tag {
				continue
			}
			for _, sref := range sends[k] {
				if _, ok := m.sendRecv[sref]; !ok {
					cands = append(cands, sref)
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].rank != cands[j].rank {
				return cands[i].rank < cands[j].rank
			}
			return cands[i].idx < cands[j].idx
		})
		if len(cands) == 0 {
			continue // reported below as an unmatched receive
		}
		srcs := map[int]bool{}
		described := true
		for _, c := range cands {
			srcs[c.rank] = true
			if s.op(c).Flags&collective.SelfDescribing == 0 {
				described = false
			}
		}
		if len(srcs) > 1 && !described {
			m.findings = append(m.findings, Finding{InvMatching, w.ref.rank, fmt.Sprintf(
				"wildcard receive tag %d is ambiguous: %d candidate sources and payloads are not self-describing",
				w.tag, len(srcs))})
		}
		m.sendRecv[cands[0]] = w.ref
		m.recvSend[w.ref] = cands[0]
	}
	// Sweep for unmatched and disagreeing ops in (rank, index) order.
	// The interpreter acts on the receive op's flags and, unless the
	// message is self-describing, on its block list, so both must equal
	// the matched send's.
	for r := 0; r < n; r++ {
		ops := s.Plan.Ops(r)
		for i := range ops {
			op := &ops[i]
			ref := opRef{r, i}
			switch op.Kind {
			case collective.OpSend:
				if _, ok := m.sendRecv[ref]; !ok {
					m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
						"send %d→%d tag %d is never received", r, op.Peer, op.Tag)})
				}
			case collective.OpRecv:
				report := func(format string, args ...any) {
					m.findings = append(m.findings, Finding{InvMatching, r, fmt.Sprintf(
						"receive posted by %d from %s tag %d ", r, peerString(int(op.Peer)), op.Tag) +
						fmt.Sprintf(format, args...)})
				}
				if sref, ok := m.recvSend[ref]; !ok {
					report("is never satisfied")
				} else if send := s.op(sref); send.Flags != op.Flags {
					report("has flags %03b, its send %03b", op.Flags, send.Flags)
				} else if want, got := s.Plan.Blocks(op), s.Plan.Blocks(send); op.Flags&collective.SelfDescribing == 0 && !slices.Equal(want, got) {
					report("expects blocks %v, its send carries %v", want, got)
				}
				if _, ok := m.waits[ref]; !ok {
					report("is never waited on")
				}
			}
		}
	}
	return m
}

func peerString(p int) string {
	if p == collective.AnySource {
		return "*"
	}
	return fmt.Sprintf("%d", p)
}

// hbGraph builds the happens-before successor lists over all ops.
// Program order always applies; a matched send precedes the receiver's
// wait; under rendezvous semantics the receive post additionally
// precedes the send's completion (the static analogue of a blocking
// send waiting for its partner).
func (s *Schedule) hbGraph(m *matchState, rendezvous bool) ([][]int, []opRef) {
	var nodes []opRef
	n := s.Plan.Graph.N()
	base := make([]int, n) // node id of each rank's first op
	for r := 0; r < n; r++ {
		base[r] = len(nodes)
		for i := range s.Plan.Ops(r) {
			nodes = append(nodes, opRef{r, i})
		}
	}
	succ := make([][]int, len(nodes))
	edge := func(a, b opRef) {
		succ[base[a.rank]+a.idx] = append(succ[base[a.rank]+a.idx], base[b.rank]+b.idx)
	}
	for _, ref := range nodes {
		if ref.idx > 0 {
			edge(opRef{ref.rank, ref.idx - 1}, ref)
		}
	}
	for _, sref := range nodes {
		rref, ok := m.sendRecv[sref] // only sends are keys
		if !ok {
			continue
		}
		if wref, ok := m.waits[rref]; ok {
			edge(sref, wref)
		}
		if rendezvous {
			edge(rref, sref)
		}
	}
	return succ, nodes
}

// checkDeadlock proves the rendezvous happens-before graph acyclic, or
// reports one cycle canonically (rotated to start at its minimum
// (rank, index) op). This is strictly stronger than what the eager
// runtime needs, matching the runtime wait-for-graph detector's
// rendezvous-mode semantics.
func (s *Schedule) checkDeadlock(m *matchState) []Finding {
	succ, nodes := s.hbGraph(m, true)
	cycle := findCycle(succ)
	if cycle == nil {
		return nil
	}
	// Rotate so the minimum (rank, idx) node leads.
	min := 0
	for i := 1; i < len(cycle); i++ {
		a, b := nodes[cycle[i]], nodes[cycle[min]]
		if a.rank < b.rank || (a.rank == b.rank && a.idx < b.idx) {
			min = i
		}
	}
	var parts []string
	for i := 0; i < len(cycle); i++ {
		parts = append(parts, s.opString(nodes[cycle[(min+i)%len(cycle)]]))
	}
	first := nodes[cycle[min]]
	parts = append(parts, s.opString(first))
	return []Finding{{InvDeadlock, first.rank, fmt.Sprintf(
		"happens-before cycle under rendezvous semantics: %s",
		strings.Join(parts, " → "))}}
}

// findCycle returns the node ids of one cycle in succ (in cycle
// order), or nil if the graph is acyclic. Iterative colored DFS from
// every node in id order keeps the answer deterministic.
func findCycle(succ [][]int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(succ))
	parent := make([]int, len(succ))
	for start := range succ {
		if color[start] != white {
			continue
		}
		type frame struct{ node, next int }
		stack := []frame{{start, 0}}
		color[start] = gray
		parent[start] = -1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(succ[f.node]) {
				t := succ[f.node][f.next]
				f.next++
				switch color[t] {
				case white:
					color[t] = gray
					parent[t] = f.node
					stack = append(stack, frame{t, 0})
				case gray:
					// Back edge f.node → t closes a cycle.
					cycle := []int{t}
					for v := f.node; v != t; v = parent[v] {
						cycle = append(cycle, v)
					}
					// Reverse into forward cycle order t → … → f.node.
					for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
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

// checkCompleteness symbolically executes the plan in an eager
// topological order (program order plus matched send→wait edges) and
// proves that every graph edge receives exactly one delivery, that no
// rank ships a block its buffer does not hold, and that no delivery
// lands off-graph. What a rank starts out holding and where a block
// lands are the plan's layout's to say, not assumed.
func (s *Schedule) checkCompleteness(m *matchState) []Finding {
	succ, nodes := s.hbGraph(m, false)
	order, ok := topoOrder(succ, nodes)
	if !ok {
		// Unreachable when checkDeadlock passed (its edge set is a
		// superset), but guard against direct calls on broken IR.
		return []Finding{{InvCompleteness, -1,
			"eager happens-before order is cyclic; completeness not evaluable"}}
	}
	g := s.Plan.Graph
	n := g.N()
	holdings := make([]map[int32]bool, n)
	for r := 0; r < n; r++ {
		holdings[r] = map[int32]bool{}
		for b, hi := s.Plan.Owned(r); b < hi; b++ {
			holdings[r][int32(b)] = true
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
	for _, ni := range order {
		ref := nodes[ni]
		op := s.op(ref)
		switch op.Kind {
		case collective.OpSend:
			for _, b := range s.Plan.Blocks(op) {
				if !holdings[ref.rank][b] {
					out = append(out, Finding{InvCompleteness, ref.rank, fmt.Sprintf(
						"rank %d sends block %d to %d (tag %d) before holding it",
						ref.rank, b, op.Peer, op.Tag)})
				}
			}
		case collective.OpWait:
			for j, hi := op.Waits(); j < hi; j++ {
				rref := opRef{ref.rank, j}
				sref, ok := m.recvSend[rref]
				if !ok || m.waits[rref] != ref {
					continue // unmatched receive or stray wait, already reported
				}
				send := s.op(sref)
				for _, b := range s.Plan.Blocks(send) {
					if send.Flags&collective.Deliver != 0 {
						deliver(b, ref.rank, sref.rank)
					}
					holdings[ref.rank][b] = true
				}
			}
		case collective.OpCopy:
			b := s.Plan.Blocks(op)[0]
			if !holdings[ref.rank][b] {
				out = append(out, Finding{InvCompleteness, ref.rank, fmt.Sprintf(
					"rank %d copies block %d before holding it", ref.rank, b)})
			}
			if op.Flags&collective.Deliver != 0 {
				deliver(b, ref.rank, ref.rank)
			} else if lo, hi := s.Plan.Owned(ref.rank); int(b) < lo || int(b) >= hi {
				out = append(out, Finding{InvCompleteness, ref.rank, fmt.Sprintf(
					"rank %d stages block %d, not its own", ref.rank, b)})
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

// topoOrder returns a deterministic topological order of succ (Kahn's
// algorithm with a (rank, idx)-ordered ready heap realized as sorted
// insertion), or ok=false when the graph is cyclic.
func topoOrder(succ [][]int, nodes []opRef) ([]int, bool) {
	indeg := make([]int, len(succ))
	for _, ts := range succ {
		for _, t := range ts {
			indeg[t]++
		}
	}
	less := func(a, b int) bool {
		if nodes[a].rank != nodes[b].rank {
			return nodes[a].rank < nodes[b].rank
		}
		return nodes[a].idx < nodes[b].idx
	}
	var ready []int
	for i := range succ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
	var order []int
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, t := range succ[v] {
			indeg[t]--
			if indeg[t] == 0 {
				// Insert keeping ready sorted; op counts are small
				// enough that linear insertion is fine.
				pos := sort.Search(len(ready), func(i int) bool { return less(t, ready[i]) })
				ready = append(ready, 0)
				copy(ready[pos+1:], ready[pos:])
				ready[pos] = t
			}
		}
	}
	return order, len(order) == len(succ)
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
				sref, ok := m.recvSend[opRef{r, i}]
				if !ok {
					continue
				}
				if s.op(sref).Flags&collective.Deliver == 0 {
					out = append(out, Finding{InvAvoidance, r, fmt.Sprintf(
						"avoided rank %d receives a forward from %d (tag %d)",
						r, sref.rank, op.Tag)})
				}
			}
		}
	}
	return out
}
