package planverify

// The verifier and the plan's static matching as they were before they
// ran in linear passes: Plan.Slots sorted each rank's receives by channel
// and binary-searched them, match sorted its channel list by comparison,
// completeness kept holdings in a (rank, block) hash set and counted
// deliveries per edge, and the deadlock check ran the coloured DFS over
// every op. They are kept verbatim (refSlots reads the plan through its
// exported accessors) as the reference the linear passes must equal,
// finding for finding, on random and mutated plans and on the matrix.

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nbrallgather/internal/collective"
)

// refSlots is Plan.Slots' derivation over a flat copy of the plan's ops.
func refSlots(pl *collective.Plan) (slot, recvs []int32) {
	n := pl.Graph.N()
	var ops []collective.PlanOp
	first := make([]int, n+1)
	for r := 0; r < n; r++ {
		ops = append(ops, pl.Ops(r)...)
		first[r+1] = len(ops)
	}
	type post struct{ src, tag, ord int32 }
	byChannel := func(a, b post) int { return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.tag, b.tag)) }
	slot, recvs, from := make([]int32, len(ops)), make([]int32, n), make([]int, n+1)
	posts := make([]post, 0, len(ops)/2) // every rank's receives by channel; from[r] bounds rank r's
	for r := range recvs {
		for i := first[r]; i < first[r+1]; i++ {
			slot[i] = -1
			if op := &ops[i]; op.Kind == collective.OpRecv {
				slot[i] = recvs[r]
				posts = append(posts, post{op.Peer, int32(op.Tag), recvs[r]})
				recvs[r]++
			}
		}
		slices.SortFunc(posts[from[r]:], byChannel)
		from[r+1] = len(posts)
	}
	left := len(posts) // receives no send has claimed: wildcards stay
	for r := range recvs {
		for i := first[r]; i < first[r+1]; i++ {
			op := &ops[i]
			if op.Kind != collective.OpSend {
				continue
			}
			if op.Peer < 0 || int(op.Peer) >= n {
				return nil, nil
			}
			theirs := posts[from[op.Peer]:from[op.Peer+1]]
			at, ok := slices.BinarySearchFunc(theirs, post{src: int32(r), tag: int32(op.Tag)}, byChannel)
			if !ok || theirs[at].ord < 0 { // no receive, or the channel's first (a second send finds the same) is taken
				return nil, nil
			}
			slot[i], theirs[at].ord = theirs[at].ord, -1
			left--
		}
	}
	if left == 0 {
		return slot, recvs
	}
	return nil, nil
}

// refVerify is Verify over the reference parts.
func (s *Schedule) refVerify() []Finding {
	var out []Finding
	m := s.refMatch()
	out = append(out, m.findings...)
	slot, recvs := refSlots(s.Plan)
	out = append(out, s.checkSlots(m, slot, recvs)...)
	cycle := s.refCheckDeadlock(m)
	out = append(out, cycle...)
	if len(cycle) == 0 {
		out = append(out, s.refCheckCompleteness(m)...)
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
func (s *Schedule) refMatch() *matchState {
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

// checkDeadlock proves the rendezvous happens-before graph acyclic, or
// reports one cycle canonically (rotated to start at its minimum
// (rank, index) op). This is strictly stronger than what the eager
// runtime needs, matching the runtime wait-for-graph detector's
// rendezvous-mode semantics.
func (s *Schedule) refCheckDeadlock(m *matchState) []Finding {
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

// refHeld is the symbolic execution's holdings: one open-addressed set of
// (rank, block) pairs, sized once for everything the plan can move.
type refHeld struct {
	slots []uint64 // rank<<32 | block, plus one; 0 is empty
	shift uint
}

func newRefHeld(entries int) *refHeld {
	width := uint(bits.Len(uint(2 * entries))) // load at most a half
	return &refHeld{make([]uint64, 1<<width), 64 - width}
}

// slot returns where (rank, block) is or would go.
func (h *refHeld) slot(rank int, block int32) (*uint64, uint64) {
	key := (uint64(rank)<<32 | uint64(uint32(block))) + 1
	for i := (key * 0x9E3779B97F4A7C15) >> h.shift; ; i = (i + 1) & uint64(len(h.slots)-1) {
		if h.slots[i] == key || h.slots[i] == 0 {
			return &h.slots[i], key
		}
	}
}

func (h *refHeld) add(rank int, block int32) {
	slot, key := h.slot(rank, block)
	*slot = key
}

func (h *refHeld) has(rank int, block int32) bool {
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
func (s *Schedule) refCheckCompleteness(m *matchState) []Finding {
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
	holdings := newRefHeld(entries)
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

// mop is one op of a plan under rewrite; a wait completes [lo, hi).
type mop struct {
	kind      collective.OpKind
	flags     collective.OpFlags
	peer, tag int
	blocks    []int
	lo, hi    int
}

// program is a plan's ops per rank in a form a mutation can edit.
type program struct {
	pl    *collective.Plan
	ranks [][]mop
}

func programOf(pl *collective.Plan) *program {
	p := &program{pl: pl, ranks: make([][]mop, pl.Graph.N())}
	for r := range p.ranks {
		ops := pl.Ops(r)
		for i := range ops {
			op := mop{kind: ops[i].Kind, flags: ops[i].Flags, peer: int(ops[i].Peer), tag: int(ops[i].Tag)}
			if op.kind == collective.OpWait {
				op.lo, op.hi = ops[i].Waits()
			} else {
				for _, b := range pl.Blocks(&ops[i]) {
					op.blocks = append(op.blocks, int(b))
				}
			}
			p.ranks[r] = append(p.ranks[r], op)
		}
	}
	return p
}

// insert puts op at index i of rank r; the rank's waits keep naming the
// ops they named.
func (p *program) insert(r, i int, op mop) {
	for k := range p.ranks[r] {
		if w := &p.ranks[r][k]; w.kind == collective.OpWait {
			w.lo, w.hi = w.lo+b2i(w.lo >= i), w.hi+b2i(w.hi >= i)
		}
	}
	p.ranks[r] = slices.Insert(p.ranks[r], i, op)
}

// remove deletes op i of rank r, and with it any wait left empty.
func (p *program) remove(r, i int) {
	p.ranks[r] = slices.Delete(p.ranks[r], i, i+1)
	for k := range p.ranks[r] {
		if w := &p.ranks[r][k]; w.kind == collective.OpWait {
			w.lo, w.hi = w.lo-b2i(w.lo > i), w.hi-b2i(w.hi > i)
			if w.lo == w.hi {
				p.remove(r, k)
				return
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pick returns a random op of one of the kinds, ok false if there is none.
func (p *program) pick(rng *rand.Rand, kinds ...collective.OpKind) (r, i int, ok bool) {
	var at [][2]int
	for r, ops := range p.ranks {
		for i, op := range ops {
			if slices.Contains(kinds, op.kind) {
				at = append(at, [2]int{r, i})
			}
		}
	}
	if len(at) == 0 {
		return 0, 0, false
	}
	k := at[rng.Intn(len(at))]
	return k[0], k[1], true
}

// cycle makes ranks a and b each send the other a message before posting
// the receive for the other's: eager-safe, a cycle under rendezvous.
func (p *program) cycle(a, b, tag int) {
	const sd = collective.SelfDescribing
	for _, x := range [][4]int{{a, b, tag, tag + 1}, {b, a, tag + 1, tag}} { // rank, peer, send tag, receive tag
		p.insert(x[0], 0, mop{kind: collective.OpSend, flags: sd, peer: x[1], tag: x[2]})
		p.insert(x[0], 1, mop{kind: collective.OpRecv, flags: sd, peer: x[1], tag: x[3]})
		p.insert(x[0], 2, mop{kind: collective.OpWait, lo: 1, hi: 2})
	}
}

// plan emits the program as a plan in the original's block layout.
func (p *program) plan() *collective.Plan {
	b := collective.NewPlanBuilder(p.pl.Graph, 0, 0)
	if p.pl.Alltoall() {
		b = collective.NewAlltoallPlanBuilder(p.pl.Graph, 0, 0)
	}
	for _, ops := range p.ranks {
		for _, op := range ops {
			switch op.kind {
			case collective.OpRecv:
				b.Recv(op.peer, op.tag, op.flags, op.blocks...)
			case collective.OpSend:
				b.Send(op.peer, op.tag, op.flags, op.blocks...)
			case collective.OpWait:
				b.Wait(op.lo, op.hi)
			case collective.OpCopy:
				b.Copy(op.blocks[0], op.flags)
			}
		}
		b.EndRank()
	}
	return b.Plan()
}

// mutations seed one defect each into a program; apply reports false
// when the program has nothing to mutate.
var mutations = []struct {
	name  string
	apply func(p *program, rng *rand.Rand) bool
}{
	{"drop-send", func(p *program, rng *rand.Rand) bool {
		r, i, ok := p.pick(rng, collective.OpSend)
		if ok {
			p.remove(r, i)
		}
		return ok
	}},
	{"drop-recv", func(p *program, rng *rand.Rand) bool {
		r, i, ok := p.pick(rng, collective.OpRecv)
		if ok {
			p.remove(r, i)
		}
		return ok
	}},
	{"dup-send", func(p *program, rng *rand.Rand) bool {
		r, i, ok := p.pick(rng, collective.OpSend)
		if ok {
			p.insert(r, i+1, p.ranks[r][i])
		}
		return ok
	}},
	{"dup-recv", func(p *program, rng *rand.Rand) bool {
		r, i, ok := p.pick(rng, collective.OpRecv)
		if ok {
			p.insert(r, i+1, p.ranks[r][i])
		}
		return ok
	}},
	{"retag", func(p *program, rng *rand.Rand) bool {
		r, i, ok := p.pick(rng, collective.OpSend, collective.OpRecv)
		if ok {
			p.ranks[r][i].tag++
		}
		return ok
	}},
	{"wildcard", func(p *program, rng *rand.Rand) bool {
		r, i, ok := p.pick(rng, collective.OpRecv)
		if ok {
			p.ranks[r][i].peer = collective.AnySource
		}
		return ok
	}},
	{"stray-peer", func(p *program, rng *rand.Rand) bool {
		r, i, ok := p.pick(rng, collective.OpSend, collective.OpRecv)
		if ok {
			p.ranks[r][i].peer = []int{-2, len(p.ranks), len(p.ranks) + 1}[rng.Intn(3)]
		}
		return ok
	}},
	{"repoint-wait", func(p *program, rng *rand.Rand) bool {
		r, i, ok := p.pick(rng, collective.OpWait)
		if ok {
			w := &p.ranks[r][i]
			if d := 1 - 2*rng.Intn(2); rng.Intn(2) == 0 {
				w.lo = max(w.lo+d, 0)
			} else {
				w.hi += d
			}
			ok = w.lo < w.hi
		}
		return ok
	}},
	{"cycle", func(p *program, rng *rand.Rand) bool {
		perm := rng.Perm(len(p.ranks))
		if len(perm) < 2 {
			return false
		}
		p.cycle(perm[0], perm[1], 32000)
		return true
	}},
	{"two-cycles", func(p *program, rng *rand.Rand) bool {
		perm := rng.Perm(len(p.ranks))
		if len(perm) < 4 {
			return false
		}
		p.cycle(perm[0], perm[1], 32000)
		p.cycle(perm[2], perm[3], 32010)
		return true
	}},
}

// eachPlan calls check on every nbr-verify matrix case (avoid-set and
// alltoall cases included), each again with one mutation in turn, and
// on TestQuickRandomPlans' random plans, allgather and alltoall, each
// unmutated and under every mutation. Every plan is fresh: its Slots
// have not been derived.
func eachPlan(t *testing.T, check func(name string, s *Schedule)) {
	rng := rand.New(rand.NewSource(20261017))
	mutate := func(name string, s *Schedule, k int) {
		p := programOf(s.Plan)
		if mutations[k].apply(p, rng) {
			m := *s
			m.Plan = p.plan()
			check(name+"/"+mutations[k].name, &m)
		}
	}
	cases, err := Cases()
	if err != nil {
		t.Fatal(err)
	}
	for k, cs := range cases {
		for _, mutated := range []bool{false, true} {
			s, err := cs.Extract()
			if err != nil {
				t.Fatal(err)
			}
			if mutated {
				mutate(cs.Name, s, k%len(mutations))
			} else {
				check(cs.Name, s)
			}
		}
	}
	prop := func(seed uint32, nodesU, socketsU, rpsU, densU, grpU uint8) bool {
		c, g, counts, err := quickShape(seed, nodesU, socketsU, rpsU, densU, grpU)
		if err != nil || g == nil {
			return err == nil
		}
		edges := collective.EdgeCounts(g, collective.UniformCount(payloadM))
		for _, algo := range Algos() {
			for _, alltoall := range []bool{false, true} {
				if alltoall && !collective.HasAlltoall(algo) {
					continue
				}
				name := fmt.Sprintf("seed %d n=%d %s", seed, g.N(), algo)
				extract := func() (*Schedule, error) { return Extract(algo, g, c, counts, nil, Params{}) }
				if alltoall {
					name += "-alltoall"
					extract = func() (*Schedule, error) { return ExtractAlltoall(algo, g, c, edges, Params{}) }
				}
				for k := -1; k < len(mutations); k++ {
					s, err := extract()
					if err != nil {
						t.Logf("%s: %v", name, err)
						return false
					}
					if k < 0 {
						check(name, s)
					} else {
						mutate(name, s, k)
					}
				}
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(20260808))}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotsEqualsReference: the linear Plan.Slots derivation gives the
// sorted one's table, or its nil, on every plan of eachPlan.
func TestSlotsEqualsReference(t *testing.T) {
	tables := 0
	eachPlan(t, func(name string, s *Schedule) {
		slot, recvs := s.Plan.Slots()
		wantSlot, wantRecvs := refSlots(s.Plan)
		if !reflect.DeepEqual(slot, wantSlot) || !reflect.DeepEqual(recvs, wantRecvs) {
			t.Errorf("%s: Slots() = %v, %v; the reference derives %v, %v", name, slot, recvs, wantSlot, wantRecvs)
		}
		tables += b2i(slot != nil)
	})
	if tables == 0 {
		t.Error("no plan derived a table")
	}
}

// TestVerifyEqualsReference: the linear matching, completeness and
// deadlock passes pair the same ops and report the same findings, text
// and order, as the sort, the hash set and the whole-graph DFS did, on
// every plan of eachPlan; each seeded cycle is reported as one.
func TestVerifyEqualsReference(t *testing.T) {
	found := map[string]int{}
	eachPlan(t, func(name string, s *Schedule) {
		if got, want := s.match(), s.refMatch(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the matching differs from the reference's", name)
		}
		got, want := s.Verify(), s.refVerify()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: findings\n  %v\nthe reference's\n  %v", name, got, want)
		}
		for _, f := range want {
			found[f.Invariant]++
		}
		if strings.Contains(name, "cycle") && !slices.ContainsFunc(want, func(f Finding) bool { return f.Invariant == InvDeadlock }) {
			t.Errorf("%s: the seeded cycle is not reported", name)
		}
	})
	for _, inv := range []string{InvMatching, InvDeadlock, InvCompleteness} {
		if found[inv] == 0 {
			t.Errorf("no mutation drew a %s finding", inv)
		}
	}
	t.Logf("findings per invariant: %v", found)
}
