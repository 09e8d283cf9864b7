package collective

import (
	"fmt"

	"nbrallgather/internal/mpirt"
)

// run executes the calling rank's program of the plan: the one place
// allgather(v) touches the runtime. Ops run strictly in program order,
// and ChargeCopy is charged by three rules only — once, for the whole
// payload, before a Packed send; once per block when a Packed Deliver
// message is unpacked; once per OpCopy — so the virtual clock sees the
// same call sequence whichever emitter produced the plan. Phantom mode
// moves no bytes and tracks no holdings.
func (pl *Plan) run(p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte) {
	g := pl.Graph
	checkArgsV(p, g, sbuf, counts, rbuf)
	r := p.Rank()
	ops := pl.Ops(r)
	posted := 0 // one past the last receive's op index
	for i := range ops {
		if ops[i].Kind == OpRecv {
			posted = i + 1
		}
	}
	reqs := make([]*mpirt.Request, posted)
	var st *payloads
	if !p.Phantom() {
		st = newPayloads(pl, r, sbuf, counts, rbuf)
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpRecv:
			reqs[i] = p.Irecv(int(op.Peer), int(op.Tag))
		case OpSend:
			blocks := pl.Blocks(op)
			size := blockBytes(blocks, counts)
			var data []byte
			if st != nil {
				data = st.payload(op, blocks, size)
			}
			if op.Flags&Packed != 0 {
				p.ChargeCopy(size)
			}
			var meta any
			if op.Flags&SelfDescribing != 0 {
				meta = op
			}
			p.Send(int(op.Peer), int(op.Tag), size, data, meta)
		case OpWait:
			for j, hi := op.Waits(); j < hi; j++ {
				if j >= len(reqs) || reqs[j] == nil {
					panic(fmt.Sprintf("collective: rank %d wait at op %d names op %d, not a pending receive", r, i, j))
				}
				msg := reqs[j].Wait()
				reqs[j] = nil
				pl.arrive(p, st, &ops[j], msg, counts)
			}
		case OpCopy:
			b := pl.Blocks(op)[0]
			if op.Flags&Deliver != 0 {
				if !g.HasEdge(int(b), r) {
					panic(fmt.Sprintf("collective: rank %d self-copy of non-in-neighbor %d", r, b))
				}
				if st != nil {
					st.deliver(b, st.block(b))
				}
			} else {
				if int(b) != r {
					panic(fmt.Sprintf("collective: rank %d stages block %d, not its own", r, b))
				}
				if st != nil && st.main != nil {
					copy(st.block(b), sbuf)
				}
			}
			p.ChargeCopy(counts[b])
		}
	}
	if st != nil {
		for i := range st.kept {
			st.kept[i].Release()
		}
	}
}

// arrive handles the message that completed receive rv: checks its size
// against the blocks it must carry, then delivers each block into the
// result buffer or keeps it as a forward.
func (pl *Plan) arrive(p mpirt.Endpoint, st *payloads, rv *PlanOp, msg mpirt.Msg, counts []int) {
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
	deliver := rv.Flags&Deliver != 0
	pos := 0
	for _, b := range blocks {
		c := counts[b]
		if deliver {
			if !pl.Graph.HasEdge(int(b), r) {
				panic(fmt.Sprintf("collective: rank %d received payload of non-in-neighbor %d from %d", r, b, msg.Src))
			}
			if st != nil {
				st.deliver(b, msg.Data[pos:pos+c])
			}
			if rv.Flags&Packed != 0 {
				p.ChargeCopy(c)
			}
		} else if st != nil && st.main != nil {
			copy(st.block(b), msg.Data[pos:pos+c]) // a forward lands in its hold slot,
		} else if st != nil {
			st.held[b] = msg.Data[pos : pos+c] // or stays aliased in the kept message
		}
		pos += c
	}
	if st != nil && !deliver && st.main == nil {
		st.kept = append(st.kept, msg) // held aliases its payload
	} else {
		msg.Release()
	}
}

// blockBytes is the payload size of a block list under counts.
func blockBytes(blocks []int32, counts []int) int {
	size := 0
	for _, b := range blocks {
		size += counts[b]
	}
	return size
}

// payloads is one rank's real-mode byte bookkeeping for one pass.
type payloads struct {
	pl     *Plan
	r      int
	counts []int
	rbuf   []byte
	// roff[i] is the result-buffer offset of in-neighbor In(r)[i].
	roff []int
	// main is the contiguous hold buffer, laid out in the rank's hold
	// order; nil when the rank declares none.
	main []byte
	// held locates every block the rank holds: the slots of main, or
	// else its send buffer and forwards aliased inside kept messages.
	held map[int32][]byte
	kept []mpirt.Msg
}

func newPayloads(pl *Plan, r int, sbuf []byte, counts []int, rbuf []byte) *payloads {
	st := &payloads{pl: pl, r: r, counts: counts, rbuf: rbuf}
	in := pl.Graph.In(r)
	st.roff = make([]int, len(in))
	pos := 0
	for i, u := range in {
		st.roff[i] = pos
		pos += counts[u]
	}
	hold := pl.Hold(r)
	st.held = make(map[int32][]byte, len(hold)+1)
	if len(hold) == 0 {
		st.held[int32(r)] = sbuf
		return st
	}
	st.main = make([]byte, blockBytes(hold, counts))
	pos = 0
	for _, b := range hold {
		st.held[b] = st.main[pos : pos+counts[b]]
		pos += counts[b]
	}
	return st
}

// block returns the bytes of a held block.
func (st *payloads) block(b int32) []byte {
	d, ok := st.held[b]
	if !ok {
		panic(fmt.Sprintf("collective: rank %d uses block %d not in buffer", st.r, b))
	}
	return d
}

// payload returns a send's bytes: a hold-order prefix and a single held
// block ship in place, a Packed send is gathered into a temporary.
func (st *payloads) payload(op *PlanOp, blocks []int32, size int) []byte {
	if op.Flags&Packed != 0 {
		tmp := make([]byte, 0, size)
		for _, b := range blocks {
			tmp = append(tmp, st.block(b)...)
		}
		return tmp
	}
	if st.main != nil && op.off == st.pl.hold[st.r].off {
		return st.main[:size]
	}
	if len(blocks) != 1 {
		panic(fmt.Sprintf("collective: rank %d unpacked send of %d blocks is not a hold-buffer prefix", st.r, len(blocks)))
	}
	return st.block(blocks[0])
}

// deliver copies block b's bytes to its place in the result buffer.
func (st *payloads) deliver(b int32, data []byte) {
	i := st.pl.Graph.IndexOfIn(st.r, int(b))
	copy(st.rbuf[st.roff[i]:st.roff[i]+st.counts[b]], data)
}
