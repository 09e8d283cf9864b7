package collective

import (
	"fmt"

	"nbrallgather/internal/mpirt"
)

// Pass is one rank's execution of a plan — the one place a collective
// touches the runtime — resumable at its only blocking point, a waited
// receive. Ops run strictly in program order, and ChargeCopy is charged
// by three rules only — once, for the whole payload, before a Packed
// send; once per block when a Packed Deliver message is unpacked; once
// per OpCopy — so the virtual clock sees the same call sequence
// whichever emitter produced the plan: the modelled copies, not the
// host's, which are two per block however often it is relayed (into its
// origin's snapshot, out into each result buffer). Phantom mode moves no
// bytes and tracks no holdings. Reset readies a Pass, zero or used.
type Pass struct {
	pl     *Plan
	counts []int
	ops    []PlanOp
	i, w   int // program counter: the op, and how far into its waits
	// posted has bit j set while receive op j is posted and not waited;
	// this runtime matches a receive when it is waited on.
	posted []uint64
	// slot is the rank's part of the plan's static matching (Plan.Slots),
	// the hint each send and waited receive carries; nil: no hints.
	slot []int32
	st   *payloads
}

// Reset points the pass at the start of rank p's program of pl.
func (ps *Pass) Reset(pl *Plan, p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte) {
	pl.checkArgs(p, sbuf, counts, rbuf)
	r := p.Rank()
	ops := pl.Ops(r)
	last, most := 0, 0 // one past the last receive's op index; the most blocks a send carries
	for i := range ops {
		if ops[i].Kind == OpRecv {
			last = i + 1
		} else if ops[i].Kind == OpSend {
			most = max(most, int(ops[i].n))
		}
	}
	*ps = Pass{pl: pl, counts: counts, ops: ops, posted: append(ps.posted[:0], make([]uint64, (last+63)/64)...)}
	if slot, recvs := pl.Slots(); slot != nil {
		p.Slots(recvs)
		ps.slot = slot[pl.first[r]:pl.first[r+1]]
	}
	if !p.Phantom() {
		ps.st = newPayloads(pl, r, sbuf, counts, rbuf, most)
	}
}

// Step runs the pass on: true once the program has ended, false when a
// waited receive suspended (RecvStep) — call again at the rank's next turn.
func (ps *Pass) Step(p mpirt.Endpoint) (done bool) {
	pl, st, ops, counts := ps.pl, ps.st, ps.ops, ps.counts
	r := p.Rank()
	for ; ps.i < len(ops); ps.i++ {
		i := ps.i
		op := &ops[i]
		switch op.Kind {
		case OpRecv:
			ps.posted[i/64] |= 1 << (i % 64)
		case OpSend:
			blocks := pl.Blocks(op)
			size := blockBytes(blocks, counts)
			if op.Flags&Packed != 0 {
				p.ChargeCopy(size)
			}
			var meta any
			if op.Flags&SelfDescribing != 0 {
				meta = op
			}
			var snap mpirt.Snapshot // zero in phantom mode: a size-only send
			if st != nil {
				snap = st.snapshot(p, op, blocks)
			}
			p.SendSnapshot(int(op.Peer), int(op.Tag), size, snap, meta, ps.hint(i))
		case OpWait:
			lo, hi := op.Waits()
			for j := lo + ps.w; j < hi; j++ {
				if j >= 64*len(ps.posted) || ps.posted[j/64]&(1<<(j%64)) == 0 {
					panic(fmt.Sprintf("collective: rank %d wait at op %d names op %d, not a pending receive", r, i, j))
				}
				msg, ok := p.RecvStep(int(ops[j].Peer), int(ops[j].Tag), ps.hint(j))
				if !ok {
					return false
				}
				ps.w++
				ps.posted[j/64] &^= 1 << (j % 64)
				pl.arrive(p, st, &ops[j], &msg, counts)
			}
			ps.w = 0
		case OpCopy:
			b := pl.Blocks(op)[0]
			if op.Flags&Deliver != 0 {
				origin, ok := pl.Lands(b, r)
				if !ok {
					panic(fmt.Sprintf("collective: rank %d self-copy of %s", r, pl.stray(b)))
				}
				if st != nil {
					st.deliver(origin, st.block(p, b).Bytes())
				}
			} else if lo, hi := pl.Owned(r); int(b) < lo || int(b) >= hi { // staging is a modelled copy: sends gather from sbuf
				panic(fmt.Sprintf("collective: rank %d stages block %d, not its own", r, b))
			}
			p.ChargeCopy(counts[b])
		}
	}
	if st != nil {
		st.snap.Release()
		st.own.Release()
		for i := range st.kept {
			st.kept[i].Release()
		}
	}
	return true
}

// hint is op i's slot hint, -1 for none.
func (ps *Pass) hint(i int) int {
	if ps.slot == nil {
		return -1
	}
	return int(ps.slot[i])
}

// run is one blocking pass: on a rank with a stack a waited receive
// parks inside Step. A stepped rank has none, and stepping its suspended
// receive again here would spin.
func (pl *Plan) run(p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte) {
	var ps Pass
	ps.Reset(pl, p, sbuf, counts, rbuf)
	if !ps.Step(p) {
		panic(fmt.Sprintf("collective: rank %d ran a blocking pass without a stack: a stepped rank must Begin and Step it", p.Rank()))
	}
}

// arrive handles the message that completed receive rv: checks its size
// against the blocks it must carry, then delivers each block into the
// result buffer or keeps it as a forward. The layout is read once per
// message, so the allgather loop does what it always did per block:
// HasEdge, and in real mode one IndexOfIn.
func (pl *Plan) arrive(p mpirt.Endpoint, st *payloads, rv *PlanOp, msg *mpirt.Msg, counts []int) {
	r := p.Rank()
	blocks := pl.Blocks(rv)
	if rv.Flags&SelfDescribing != 0 {
		send, ok := msg.Meta.(*PlanOp)
		if !ok {
			panic(fmt.Sprintf("collective: rank %d message from %d tag %d carries no block list", r, msg.Src, msg.Tag))
		}
		blocks = pl.Blocks(send)
	}
	if want := blockBytes(blocks, counts); msg.Size != want {
		panic(fmt.Sprintf("collective: rank %d expected %d bytes from %d, got %d", r, want, msg.Src, msg.Size))
	}
	deliver, gather := rv.Flags&Deliver != 0, pl.edgeOff == nil
	runs, pos := msg.Runs(), 0 // a composite's, one per block
	for i, b := range blocks {
		c := counts[b]
		var d mpirt.Piece
		if runs != nil {
			d = runs[i]
		} else if st != nil {
			d = msg.Whole().Slice(pos, pos+c)
		}
		pos += c
		if deliver {
			origin, ok := int(b), false
			if gather {
				ok = pl.Graph.HasEdge(origin, r)
			} else {
				origin, ok = pl.Lands(b, r)
			}
			if !ok {
				panic(fmt.Sprintf("collective: rank %d received payload of %s from %d", r, pl.stray(b), msg.Src))
			}
			if st != nil {
				st.deliver(origin, d.Bytes())
			}
			if rv.Flags&Packed != 0 {
				p.ChargeCopy(c)
			}
		} else if st != nil {
			st.held[b] = d // a forward stays a run the kept message holds
		}
	}
	if st != nil && !deliver {
		st.kept = append(st.kept, *msg) // held names its runs
	} else {
		msg.Release()
	}
}

// stray names a block that arrived where it does not land, for the
// interpreter's panics.
func (pl *Plan) stray(b int32) string {
	if pl.edgeOff == nil {
		return fmt.Sprintf("non-in-neighbor %d", b)
	}
	src, dst := pl.Edge(b)
	return fmt.Sprintf("segment %d→%d, addressed elsewhere", src, dst)
}

// blockBytes is the payload size of a block list under counts.
func blockBytes(blocks []int32, counts []int) int {
	size := 0
	for _, b := range blocks {
		size += counts[b]
	}
	return size
}

// payloads is one rank's real-mode byte bookkeeping for one pass. Every
// block the rank holds is a run of an immutable snapshot — its one Gather
// of the send buffer, or the forward that brought it, kept until the pass
// ends — and a send composes its blocks' runs, copying nothing.
type payloads struct {
	pl     *Plan
	r      int
	sbuf   []byte
	counts []int
	rbuf   []byte
	// roff[i] is the result-buffer offset of in-neighbor In(r)[i].
	roff []int
	// held locates every block the rank holds; own holds its own.
	held map[int32]mpirt.Piece
	own  mpirt.Snapshot
	kept []mpirt.Msg
	// snap is the latest send's snapshot and sent its block span; a
	// fan-out, the same span again, shares it.
	snap mpirt.Snapshot
	sent span
	runs []mpirt.Piece // compose scratch
}

func newPayloads(pl *Plan, r int, sbuf []byte, counts []int, rbuf []byte, most int) *payloads {
	lo, hi := pl.Owned(r)
	st := &payloads{pl: pl, r: r, sbuf: sbuf, counts: counts, rbuf: rbuf, held: make(map[int32]mpirt.Piece, max(hi-lo, len(pl.Hold(r)))), runs: make([]mpirt.Piece, 0, most)}
	in := pl.Graph.In(r)
	st.roff = make([]int, len(in))
	pos := 0
	for i, u := range in {
		st.roff[i] = pos
		pos += counts[pl.InBlock(u, r)]
	}
	return st
}

// block returns a held block. The first own block asked for snapshots
// the send buffer: a rank that ships none of its bytes copies none.
func (st *payloads) block(p mpirt.Endpoint, b int32) mpirt.Piece {
	if d, ok := st.held[b]; ok {
		return d
	}
	lo, hi := st.pl.Owned(st.r)
	if int(b) < lo || int(b) >= hi {
		panic(fmt.Sprintf("collective: rank %d uses block %d not in buffer", st.r, b))
	}
	st.own = p.Gather(st.sbuf)
	whole, pos := st.own.Whole(), 0
	for c := lo; c < hi; c++ {
		st.held[int32(c)] = whole.Slice(pos, pos+st.counts[c])
		pos += st.counts[c]
	}
	return st.held[b]
}

// snapshot returns a send's payload, composed of its blocks' runs unless
// the previous send carried the same span. An unpacked send models
// shipping in place, which only a prefix of the declared hold order or a
// single block can do.
func (st *payloads) snapshot(p mpirt.Endpoint, op *PlanOp, blocks []int32) mpirt.Snapshot {
	h := st.pl.hold
	if op.Flags&Packed == 0 && len(blocks) != 1 && (h == nil || op.off != h[st.r].off || op.n > h[st.r].n) {
		panic(fmt.Sprintf("collective: rank %d unpacked send of %d blocks is not a hold-buffer prefix", st.r, len(blocks)))
	}
	if sp := (span{op.off, op.n}); sp != st.sent {
		st.runs = st.runs[:0]
		for _, b := range blocks {
			st.runs = append(st.runs, st.block(p, b))
		}
		st.snap.Release()
		st.snap, st.sent = p.Compose(st.runs), sp
	}
	return st.snap
}

// streamMin is the smallest block deliver streams past the cache (a
// pass never reads its result buffer); below it the fence costs more.
const streamMin = 4 << 10

// deliver copies a landed block's bytes to its origin's slot in the
// result buffer.
func (st *payloads) deliver(origin int, data []byte) {
	i := st.pl.Graph.IndexOfIn(st.r, origin)
	if dst := st.rbuf[st.roff[i] : st.roff[i]+len(data)]; len(data) < streamMin {
		copy(dst, data)
	} else {
		streamCopy(dst, data)
	}
}
