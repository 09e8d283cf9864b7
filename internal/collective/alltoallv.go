package collective

import (
	"fmt"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/order"
	"nbrallgather/internal/pattern"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/vgraph"
)

// CountFunc gives the payload size in bytes of the alltoallv segment
// src → dst. It models MPI_Neighbor_alltoallv's sendcounts/recvcounts
// agreement: both endpoints know the size of their shared segment. It
// must be deterministic and non-negative for every edge of the graph.
type CountFunc func(src, dst int) int

// UniformCount returns the constant-size CountFunc of plain alltoall.
func UniformCount(m int) CountFunc {
	return func(int, int) int { return m }
}

// AVOp is a neighborhood alltoallv implementation. sbuf concatenates
// the segments addressed to Out(rank) in ascending neighbor order with
// per-edge sizes; rbuf receives In(rank)'s segments likewise.
type AVOp interface {
	AOp
	RunAV(p mpirt.Endpoint, sbuf []byte, counts CountFunc, rbuf []byte)
}

func checkArgsAV(p mpirt.Endpoint, g *vgraph.Graph, sbuf []byte, counts CountFunc, rbuf []byte) {
	if p.Size() != g.N() {
		panic(fmt.Sprintf("collective: runtime has %d ranks, graph %d", p.Size(), g.N()))
	}
	if counts == nil {
		panic("collective: nil CountFunc")
	}
	r := p.Rank()
	sendTotal, recvTotal := 0, 0
	for _, v := range g.Out(r) {
		c := counts(r, v)
		if c < 0 {
			panic(fmt.Sprintf("collective: negative count for edge %d→%d", r, v))
		}
		sendTotal += c
	}
	for _, u := range g.In(r) {
		c := counts(u, r)
		if c < 0 {
			panic(fmt.Sprintf("collective: negative count for edge %d→%d", u, r))
		}
		recvTotal += c
	}
	if p.Phantom() {
		return
	}
	if len(sbuf) != sendTotal {
		panic(fmt.Sprintf("collective: rank %d sbuf length %d != Σ send counts %d", r, len(sbuf), sendTotal))
	}
	if len(rbuf) != recvTotal {
		panic(fmt.Sprintf("collective: rank %d rbuf length %d != Σ recv counts %d", r, len(rbuf), recvTotal))
	}
}

// recvOffsetsAV returns the rbuf offset of each incoming neighbor's
// segment for rank r.
func recvOffsetsAV(g *vgraph.Graph, r int, counts CountFunc) map[int]int {
	off := make(map[int]int, g.InDegree(r))
	pos := 0
	for _, u := range g.In(r) {
		off[u] = pos
		pos += counts(u, r)
	}
	return off
}

// RunA implements AOp for the naive algorithm by delegating to RunAV.
// (Defined here so both uniform and ragged paths share one body; the
// original direct implementation remains as the RunAV special case.)
func (a *NaiveAlltoall) RunAV(p mpirt.Endpoint, sbuf []byte, counts CountFunc, rbuf []byte) {
	checkArgsAV(p, a.g, sbuf, counts, rbuf)
	r := p.Rank()
	in := a.g.In(r)
	reqs := make([]*mpirt.Request, 0, len(in))
	for _, u := range in {
		reqs = append(reqs, p.Irecv(u, tags.A2ANaive))
	}
	pos := 0
	for _, v := range a.g.Out(r) {
		c := counts(r, v)
		var seg []byte
		if !p.Phantom() {
			seg = sbuf[pos : pos+c]
		}
		pos += c
		p.Send(v, tags.A2ANaive, c, seg, nil)
	}
	rpos := 0
	for i, req := range reqs {
		msg := req.Wait()
		u := in[i]
		c := counts(u, r)
		if msg.Size != c {
			panic(fmt.Sprintf("collective: rank %d expected %d bytes from %d, got %d", r, c, u, msg.Size))
		}
		if !p.Phantom() {
			copy(rbuf[rpos:rpos+c], msg.Data)
		}
		msg.Release()
		rpos += c
	}
}

// RunAV implements AVOp for the Distance Halving alltoall: the same
// per-edge responsibility replay as RunA with per-edge sizes.
func (a *DistanceHalvingAlltoall) RunAV(p mpirt.Endpoint, sbuf []byte, counts CountFunc, rbuf []byte) {
	checkArgsAV(p, a.g, sbuf, counts, rbuf)
	r := p.Rank()
	plan := &a.pat.Plans[r]
	phantom := p.Phantom()
	rOff := recvOffsetsAV(a.g, r, counts)

	held := make(map[edge][]byte, a.g.OutDegree(r))
	pos := 0
	for _, v := range a.g.Out(r) {
		c := counts(r, v)
		var seg []byte
		if !phantom {
			seg = sbuf[pos : pos+c]
		}
		pos += c
		held[edge{r, v}] = seg
	}
	// kept are the step messages held aliases into, released when the
	// pass ends. take moves a held segment into the next message; send
	// ships what was taken, gathered into one snapshot (size-only in
	// phantom mode, where every segment is nil).
	var kept []mpirt.Msg
	var parts [][]byte
	size := 0
	take := func(e edge) {
		parts = append(parts, held[e])
		size += counts(e.Src, e.Dst)
		delete(held, e)
	}
	send := func(dst, tag int, meta any) {
		p.ChargeCopy(size)
		snap := p.Gather(parts)
		p.SendSnapshot(dst, tag, size, snap, meta)
		snap.Release()
		parts, size = parts[:0], 0
	}

	deliverLocal := func(e edge, data []byte) {
		off, ok := rOff[e.Src]
		if !ok {
			panic(fmt.Sprintf("collective: rank %d holds alltoallv segment %v for a non-edge", r, e))
		}
		c := counts(e.Src, r)
		if !phantom {
			copy(rbuf[off:off+c], data)
		}
		p.ChargeCopy(c)
	}

	for t := range plan.Steps {
		s := &plan.Steps[t]
		var req *mpirt.Request
		if s.Origin != pattern.NoRank {
			req = p.Irecv(s.Origin, tags.A2AStep+t)
		}
		if s.Agent != pattern.NoRank {
			var moved []edge
			for _, e := range order.SortedKeysFunc(held, func(a, b edge) bool {
				if a.Src != b.Src {
					return a.Src < b.Src
				}
				return a.Dst < b.Dst
			}) {
				if e.Dst >= s.H2Lo && e.Dst < s.H2Hi {
					moved = append(moved, e)
					take(e)
				}
			}
			send(s.Agent, tags.A2AStep+t, moved)
		}
		if req != nil {
			msg := req.Wait()
			arrived := msg.Meta.([]edge)
			apos := 0
			for _, e := range arrived {
				c := counts(e.Src, e.Dst)
				var data []byte
				if !phantom {
					data = msg.Data[apos : apos+c]
				}
				apos += c
				if e.Dst == r {
					deliverLocal(e, data)
					continue
				}
				held[e] = data // an alias into msg.Data across later steps
			}
			if msg.Size != apos {
				panic(fmt.Sprintf("collective: rank %d step %d alltoallv size %d != %d", r, t, msg.Size, apos))
			}
			kept = append(kept, msg)
		}
	}

	reqs := make([]*mpirt.Request, 0, len(plan.FinalRecvs))
	for _, sender := range plan.FinalRecvs {
		reqs = append(reqs, p.Irecv(sender, tags.A2AFinal))
	}
	for _, fs := range plan.FinalSends {
		for _, src := range fs.Sources {
			e := edge{src, fs.Dst}
			if _, ok := held[e]; !ok {
				panic(fmt.Sprintf("collective: rank %d final alltoallv send missing segment %v", r, e))
			}
			take(e)
		}
		send(fs.Dst, tags.A2AFinal, fs.Sources)
	}
	for _, src := range plan.FinalSelfCopies {
		e := edge{src, r}
		data, ok := held[e]
		if !ok {
			panic(fmt.Sprintf("collective: rank %d final self-copy missing segment %v", r, e))
		}
		deliverLocal(e, data)
		delete(held, e)
	}
	for e := range held {
		panic(fmt.Sprintf("collective: rank %d left alltoallv segment %v undelivered", r, e))
	}
	for _, req := range reqs {
		msg := req.Wait()
		sources := msg.Meta.([]int)
		fpos := 0
		for _, src := range sources {
			c := counts(src, r)
			var data []byte
			if !phantom {
				data = msg.Data[fpos : fpos+c]
			}
			fpos += c
			deliverLocal(edge{src, r}, data)
		}
		if msg.Size != fpos {
			panic(fmt.Sprintf("collective: rank %d final alltoallv size %d != %d", r, msg.Size, fpos))
		}
		msg.Release()
	}
	for i := range kept {
		kept[i].Release()
	}
}
