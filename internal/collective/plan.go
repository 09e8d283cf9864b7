package collective

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/vgraph"
)

// The plan IR (DESIGN.md "Plan IR contract"): every allgather(v) and
// alltoall(v) algorithm in this package is an emitter producing a Plan,
// the one interpreter in interp.go runs it, and internal/planverify
// proves its invariants on this same object.

// OpKind discriminates the plan's operations.
type OpKind uint8

const (
	// OpRecv posts a nonblocking receive.
	OpRecv OpKind = iota
	// OpSend sends one message.
	OpSend
	// OpWait completes a run of previously posted receives, in order.
	OpWait
	// OpCopy is a charged local copy of one held block: into the result
	// buffer (Deliver), or the modelled staging of the rank's own block
	// into its hold buffer (no Deliver; a charge, no host copy).
	OpCopy
)

// OpFlags qualify a send, its matching receive (both sides carry the
// same flags) or a copy.
type OpFlags uint8

const (
	// Deliver marks a payload that lands in the receiver's result
	// buffer — a terminal delivery that must cover graph edges exactly
	// once. Other messages are forwards extending the receiver's
	// holdings.
	Deliver OpFlags = 1 << iota
	// SelfDescribing marks a message carrying its block list in-band,
	// so the receiver learns the blocks from the message rather than
	// from its own receive op.
	SelfDescribing
	// Packed marks a message modelled as assembled into a temporary
	// buffer: the sender is charged one copy of the whole payload, and a
	// Deliver receiver one copy per block unpacked.
	Packed
)

// AnySource marks a wildcard receive.
const AnySource = mpirt.AnySource

// PlanOp is one operation of a rank's program.
type PlanOp struct {
	Kind  OpKind
	Flags OpFlags
	// Tag is the message tag of a send or receive.
	Tag int16
	// Peer is the send destination or the receive source (AnySource
	// for a wildcard receive). Unused for OpWait/OpCopy.
	Peer int32
	// off, n locate the op's blocks in the plan's shared arena: the
	// blocks a send carries in payload order, the blocks a receive that
	// is not self-describing expects, or a copy's single block. For
	// OpWait they are instead the range of op indices it completes.
	off, n uint32
}

// planOpBytes is the size of a PlanOp (pinned by TestPlanOpSize).
const planOpBytes = 16

// Waits returns the op-index range [lo, hi), within the same rank's
// ops, of the receives an OpWait completes, in order.
func (op *PlanOp) Waits() (lo, hi int) { return int(op.off), int(op.off + op.n) }

// span is a sub-slice of the block arena.
type span struct{ off, n uint32 }

// Plan is the complete program of one collective: per-rank op lists
// in exact issue order, flattened into one slice, with every block
// list a sub-slice of one arena. A block is an index into the run's
// counts. Plans are immutable once built and safe to share across ops,
// ranks and goroutines.
type Plan struct {
	Graph *vgraph.Graph
	ops   []PlanOp
	// first[r]..first[r+1] bound rank r's ops.
	first []uint32
	// arena opens with the identity over the blocks, so a single block b
	// is arena[b:b+1] at no cost.
	arena []int32
	// hold[r] is rank r's hold-buffer order (nil when no rank models a
	// contiguous hold buffer).
	hold []span
	// edgeOff declares the block layout (DESIGN.md "Block layout"). nil
	// is the allgather layout: block b is rank b's send buffer and lands
	// at every out-neighbor of b. Otherwise blocks number the graph's
	// edges by out-list position: edgeOff[u]+j is u's segment for
	// Out(u)[j], lands at that rank alone, and u's send buffer
	// concatenates edgeOff[u]..edgeOff[u+1]. Either way rank r's result
	// buffer takes one block per in-neighbor, at its origin's slot.
	edgeOff []uint32

	// The static matching (Slots), derived on the first pass: not part
	// of the plan's identity, nor of Bytes.
	slotsOnce   sync.Once
	slot, recvs []int32
}

// Slots returns the plan's static matching, the slot hints of its
// passes: recvs[r] counts rank r's receives, and slot[i], for op i of
// the plan counted rank after rank, is a receive's ordinal among its
// rank's receives, a send's that of the receive it completes at its
// peer, -1 for other ops. Both are nil unless every send and receive has
// its one partner on a (src, dst, tag) channel of their own.
func (pl *Plan) Slots() (slot, recvs []int32) {
	pl.slotsOnce.Do(pl.deriveSlots)
	return pl.slot, pl.recvs
}

// deriveSlots matches in linear passes. Rank d's sends fill a bucket no
// longer than d's receive count, in op order, each parking its source in
// its slot; then d chains its receives by source, in op order, and each
// send claims the first receive on its source's chain that has its tag,
// complementing that receive's ordinal until d is done. No table for an
// overfull bucket, a receive left unclaimed (a wildcard is), or a send
// that finds its channel's first receive missing or taken (a second send).
func (pl *Plan) deriveSlots() {
	n, ops := pl.Graph.N(), pl.ops
	slot, recvs, scratch := make([]int32, len(ops)), make([]int32, n), make([]int32, 3*n+1+2*len(ops))
	from, fill, head := scratch[:n+1], scratch[n+1:2*n+1], scratch[2*n+1:3*n+1]
	sends, next := scratch[3*n+1:3*n+1+len(ops)], scratch[3*n+1+len(ops):]
	for r := range recvs {
		for i := pl.first[r]; i < pl.first[r+1]; i++ {
			slot[i] = -1
			if ops[i].Kind == OpRecv {
				slot[i] = recvs[r]
				recvs[r]++
			}
		}
		from[r+1], fill[r], head[r] = from[r]+recvs[r], from[r], -1
	}
	for r := range recvs {
		for i := pl.first[r]; i < pl.first[r+1]; i++ {
			if d := ops[i].Peer; ops[i].Kind == OpSend {
				if d < 0 || int(d) >= n || fill[d] == from[d+1] {
					return
				}
				sends[fill[d]], slot[i], fill[d] = int32(i), int32(r), fill[d]+1
			}
		}
	}
	for d := range recvs {
		lo, hi := pl.first[d], pl.first[d+1]
		for i := hi; i > lo; i-- {
			if op := &ops[i-1]; op.Kind == OpRecv && op.Peer >= 0 && int(op.Peer) < n { // a wildcard stays unclaimed
				next[i-1], head[op.Peer] = head[op.Peer], int32(i-1)
			}
		}
		for _, j := range sends[from[d]:fill[d]] {
			c := head[slot[j]]
			for c >= 0 && ops[c].Tag != ops[j].Tag {
				c = next[c]
			}
			if c < 0 || slot[c] < 0 {
				return
			}
			slot[j], slot[c] = slot[c], ^slot[c]
		}
		for i := lo; i < hi; i++ {
			if ops[i].Kind == OpRecv {
				if slot[i] >= 0 {
					return
				}
				head[ops[i].Peer], slot[i] = -1, ^slot[i]
			}
		}
	}
	pl.slot, pl.recvs = slot, recvs
}

// Alltoall reports whether the plan's blocks are the graph's edges.
func (pl *Plan) Alltoall() bool { return pl.edgeOff != nil }

// NumBlocks is the layout's block count: the length of a run's counts.
func (pl *Plan) NumBlocks() int {
	if pl.edgeOff == nil {
		return pl.Graph.N()
	}
	return int(pl.edgeOff[pl.Graph.N()])
}

// Owned returns the blocks [lo, hi) rank r's send buffer concatenates,
// in order: what the rank holds when a pass begins.
func (pl *Plan) Owned(r int) (lo, hi int) {
	if pl.edgeOff == nil {
		return r, r + 1
	}
	return int(pl.edgeOff[r]), int(pl.edgeOff[r+1])
}

// Edge returns the edge whose segment an alltoall plan's block b is.
func (pl *Plan) Edge(b int32) (src, dst int) {
	src = sort.Search(pl.Graph.N(), func(u int) bool { return pl.edgeOff[u+1] > uint32(b) })
	return src, pl.Graph.Out(src)[uint32(b)-pl.edgeOff[src]]
}

// InBlock returns the block that lands at rank r from in-neighbor u.
func (pl *Plan) InBlock(u, r int) int {
	if pl.edgeOff == nil {
		return u
	}
	return int(pl.edgeOff[u]) + pl.Graph.IndexOfOut(u, r)
}

// Lands reports whether block b lands in rank r's result buffer, and
// the origin whose slot it takes there.
func (pl *Plan) Lands(b int32, r int) (origin int, ok bool) {
	if pl.edgeOff == nil {
		return int(b), pl.Graph.HasEdge(int(b), r)
	}
	src, dst := pl.Edge(b)
	return src, dst == r
}

// Ops returns rank r's ops in program order. Read-only.
func (pl *Plan) Ops(r int) []PlanOp { return pl.ops[pl.first[r]:pl.first[r+1]] }

// Blocks returns op's block list. Read-only.
func (pl *Plan) Blocks(op *PlanOp) []int32 { return pl.arena[op.off : op.off+op.n] }

// Hold returns rank r's hold-buffer order, empty when the rank keeps no
// contiguous hold buffer. Read-only.
func (pl *Plan) Hold(r int) []int32 {
	if pl.hold == nil {
		return nil
	}
	h := pl.hold[r]
	return pl.arena[h.off : h.off+h.n]
}

// Bytes is the plan's resident size: the plan cache's cost.
func (pl *Plan) Bytes() int64 {
	const header = 8 + 4*24 // graph pointer + four slice headers
	return header + planOpBytes*int64(cap(pl.ops)) + 4*int64(cap(pl.first)) +
		4*int64(cap(pl.arena)) + 8*int64(cap(pl.hold)) + 4*int64(cap(pl.edgeOff))
}

// PlanBuilder assembles a Plan rank by rank: ops are appended to the
// current rank until EndRank, which must be called once per rank in
// rank order.
type PlanBuilder struct {
	pl   *Plan
	rank int
}

// NewPlanBuilder starts an allgather-layout plan over g. ops and blocks
// size the op list and the multi-block lists up front (0 = grow as
// needed): a plan built at 100k ranks between two collections is all
// resident memory, and append's growth would allocate five times the
// final size.
func NewPlanBuilder(g *vgraph.Graph, ops, blocks int) *PlanBuilder {
	return newPlanBuilder(g, nil, ops, blocks)
}

// NewAlltoallPlanBuilder starts an alltoall-layout plan over g: its
// blocks are g's edges, numbered by out-list position.
func NewAlltoallPlanBuilder(g *vgraph.Graph, ops, blocks int) *PlanBuilder {
	off := make([]uint32, g.N()+1)
	for u := 0; u < g.N(); u++ {
		off[u+1] = off[u] + uint32(g.OutDegree(u))
	}
	return newPlanBuilder(g, off, ops, blocks)
}

func newPlanBuilder(g *vgraph.Graph, edgeOff []uint32, ops, blocks int) *PlanBuilder {
	pl := &Plan{Graph: g, ops: make([]PlanOp, 0, ops), first: make([]uint32, 1, g.N()+1), edgeOff: edgeOff}
	nb := pl.NumBlocks()
	pl.arena = make([]int32, nb, nb+blocks)
	for i := range pl.arena {
		pl.arena[i] = int32(i)
	}
	return &PlanBuilder{pl: pl}
}

// Hold declares rank r's hold-buffer order: the contiguous buffer the
// algorithm models, of which an unpacked send may ship any prefix in
// place (the interpreter gathers it; nothing is staged on the host).
// Declare holds before emitting ops, so sends and receives naming a
// prefix alias it instead of storing a copy.
func (b *PlanBuilder) Hold(r int, order []int32) {
	if b.pl.hold == nil {
		b.pl.hold = make([]span, b.pl.Graph.N())
	}
	b.pl.hold[r] = intern(b, order, -1)
}

// intern stores blocks in b's arena, aliasing a prefix of holder's hold
// order or the identity when it can.
func intern[T int | int32](b *PlanBuilder, blocks []T, holder int) span {
	pl := b.pl
	if k := uint32(len(blocks)); pl.hold != nil && holder >= 0 && holder < pl.Graph.N() && k > 0 {
		h := pl.hold[holder]
		if h.n >= k && slices.EqualFunc(pl.arena[h.off:h.off+k], blocks, func(a int32, b T) bool { return int(a) == int(b) }) {
			return span{h.off, k}
		}
	}
	nb := pl.NumBlocks()
	for _, v := range blocks {
		if v < 0 || int(v) >= nb {
			panic(fmt.Sprintf("collective: plan block %d outside [0,%d)", v, nb))
		}
	}
	if len(blocks) == 1 {
		return span{uint32(blocks[0]), 1}
	}
	off := uint32(len(pl.arena))
	for _, v := range blocks {
		pl.arena = append(pl.arena, int32(v))
	}
	return span{off, uint32(len(blocks))}
}

func (b *PlanBuilder) add(kind OpKind, flags OpFlags, peer, tag int, s span) {
	if int(int16(tag)) != tag {
		panic(fmt.Sprintf("collective: plan tag %d does not fit 16 bits", tag))
	}
	// Filled in place: a composite literal is built on the stack by narrow
	// stores, then read back by one wide load that stalls on them.
	pl := b.pl
	pl.ops = append(pl.ops, PlanOp{})
	op := &pl.ops[len(pl.ops)-1]
	op.Kind, op.Flags, op.Tag, op.Peer, op.off, op.n = kind, flags, int16(tag), int32(peer), s.off, s.n
}

// Len returns the number of ops emitted for the current rank so far —
// the index the next op will get.
func (b *PlanBuilder) Len() int { return len(b.pl.ops) - int(b.pl.first[b.rank]) }

// Recv posts a receive from peer. blocks are the blocks the message
// must carry; leave them out for a SelfDescribing receive.
func (b *PlanBuilder) Recv(peer, tag int, flags OpFlags, blocks ...int) {
	b.add(OpRecv, flags, peer, tag, intern(b, blocks, peer))
}

// Send sends blocks, in payload order, to peer.
func (b *PlanBuilder) Send(peer, tag int, flags OpFlags, blocks ...int) {
	b.add(OpSend, flags, peer, tag, intern(b, blocks, b.rank))
}

// Wait completes, in order, the receives at op indices lo..hi-1; an
// empty range emits nothing.
func (b *PlanBuilder) Wait(lo, hi int) {
	if lo < hi {
		b.add(OpWait, 0, 0, 0, span{uint32(lo), uint32(hi - lo)})
	}
}

// Copy emits a charged local copy of block: with Deliver, a held block
// into the result buffer; without, the rank's own block into its
// modelled hold buffer.
func (b *PlanBuilder) Copy(block int, flags OpFlags) {
	b.add(OpCopy, flags, 0, 0, intern(b, []int{block}, -1))
}

// EndRank closes the current rank's program.
func (b *PlanBuilder) EndRank() {
	b.pl.first = append(b.pl.first, uint32(len(b.pl.ops)))
	b.rank++
}

// Plan returns the finished plan; every rank must have been closed.
func (b *PlanBuilder) Plan() *Plan {
	if n := b.pl.Graph.N(); b.rank != n {
		panic(fmt.Sprintf("collective: plan closed %d of %d ranks", b.rank, n))
	}
	return b.pl
}
