package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/plancache"
	"nbrallgather/internal/tags"
	"nbrallgather/internal/topology"
)

// The micro section times the runtime hot paths every simulated
// experiment sits on — point-to-point matching, the payload pool via
// its public Send/Recv/Release path, the barrier, and one end-to-end
// neighborhood-exchange step — using testing.Benchmark so the numbers
// are the same ns/op + allocs/op the `go test -bench` suite reports.
// The P2P rows are expected to hold 0 allocs/op.

type microBench struct {
	Name        string
	N           int
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
}

func micro(w io.Writer, o *opts) error {
	rows := runMicro(w)
	if o.assertZeroAlloc {
		return checkZeroAlloc(rows)
	}
	return nil
}

func microCfg(nodes, rps int) mpirt.Config {
	return mpirt.Config{Cluster: topology.Niagara(nodes, rps), WallLimit: 5 * time.Minute}
}

// runMicro executes the hot-path micro-benchmarks and prints one line
// per row in input order.
func runMicro(out io.Writer) []microBench {
	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"p2p/sendrecv", microSendRecv},
		{"p2p/sendrecv-stepped", microSendRecvStepped},
		{"p2p/sendrecv-hinted", microSendRecvHinted},
		{"p2p/match-indexed", microMatchIndexed},
		{"p2p/match-wildcard", microMatchWildcard},
		{"p2p/gather-send", microGatherSend},
		{"p2p/shared-snapshot", microSharedSnapshot},
		{"p2p/compose-send", microComposeSend},
		{"pool/payload-roundtrip", microPoolRoundtrip},
		{"cache/hit-lookup", microCacheHit},
		{"collective/barrier", microBarrier},
		{"collective/allgather-step", microAllgatherStep},
	}
	rows := make([]microBench, 0, len(benches))
	for _, tc := range benches {
		r := testing.Benchmark(tc.fn)
		row := microBench{
			Name:        tc.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		rows = append(rows, row)
		fmt.Fprintf(out, "micro %-26s %12.1f ns/op %8d B/op %6d allocs/op\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
	}
	return rows
}

// checkZeroAlloc enforces at run time what the allocdiscipline
// analyzer proves statically: the //lint:hotpath closure — matching,
// the payload pool, nonblocking requests — stays allocation-free once
// warm. The p2p/ and pool/ rows measure exactly that closure, so a
// nonzero allocs/op there means escape analysis stopped cooperating
// (or an //lint:allocok site is not as cold as its review claimed).
func checkZeroAlloc(rows []microBench) error {
	var bad []string
	for _, r := range rows {
		hot := strings.HasPrefix(r.Name, "p2p/") || strings.HasPrefix(r.Name, "pool/") ||
			strings.HasPrefix(r.Name, "cache/")
		if hot && r.AllocsPerOp > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op", r.Name, r.AllocsPerOp))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("hot-path rows must hold 0 allocs/op: %s", strings.Join(bad, "; "))
	}
	return nil
}

// microSendRecv is the raw eager round trip between two ranks.
func microSendRecv(b *testing.B) {
	b.ReportAllocs()
	payload := make([]byte, 64)
	if _, err := mpirt.Run(microCfg(1, 2), func(p *mpirt.Proc) {
		for i := 0; i < b.N; i++ {
			switch p.Rank() {
			case 0:
				p.Send(1, tags.BenchPing, len(payload), payload, nil)
				m := p.Recv(1, tags.BenchPong)
				m.Release()
			case 1:
				m := p.Recv(0, tags.BenchPing)
				m.Release()
				p.Send(0, tags.BenchPong, len(payload), payload, nil)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// pingPong is microSendRecv's round trip as an mpirt.Stepper: the event
// loop calls Step where it would switch into the rank's coroutine, and
// a receive with nothing queued suspends instead of parking.
type pingPong struct {
	left    int
	sent    bool // rank 0: this round's ping is out
	payload []byte
	slot    int // the hint every send and receive carries: 0, or -1 for none
}

func (s *pingPong) send(p *mpirt.Proc, dst, tag int) {
	snap := p.Gather(s.payload)
	p.SendSnapshot(dst, tag, len(s.payload), snap, nil, s.slot)
	snap.Release()
}

func (s *pingPong) Step(p *mpirt.Proc) bool {
	for ; s.left > 0; s.left-- {
		switch p.Rank() {
		case 0:
			if !s.sent {
				s.send(p, 1, tags.BenchPing)
				s.sent = true
			}
			m, ok := p.RecvStep(1, tags.BenchPong, s.slot)
			if !ok {
				return false
			}
			m.Release()
			s.sent = false
		case 1:
			m, ok := p.RecvStep(0, tags.BenchPing, s.slot)
			if !ok {
				return false
			}
			m.Release()
			s.send(p, 0, tags.BenchPong)
		}
	}
	return true
}

// microSendRecvStepped is microSendRecv with stepped ranks.
func microSendRecvStepped(b *testing.B) { steppedPingPong(b, -1) }

// microSendRecvHinted is the stepped round trip as a plan pass issues
// it: each rank posts one receive, and every message is hinted into
// that mailbox slot instead of hashed onto its (src, tag) list.
func microSendRecvHinted(b *testing.B) { steppedPingPong(b, 0) }

func steppedPingPong(b *testing.B, slot int) {
	b.ReportAllocs()
	payload := make([]byte, 64)
	recvs := []int32{1, 1, 0, 0} // ranks 0 and 1 play, of microCfg(1, 2)'s four
	if _, err := mpirt.RunSteppers(microCfg(1, 2), func(p *mpirt.Proc) mpirt.Stepper {
		p.Slots(recvs)
		return &pingPong{left: b.N, payload: payload, slot: slot}
	}); err != nil {
		b.Fatal(err)
	}
}

// microMatchIndexed receives around a 64-message backlog parked on
// other (src, tag) match lists — O(1) with the indexed mailbox.
func microMatchIndexed(b *testing.B) {
	b.ReportAllocs()
	const backlog = 64
	if _, err := mpirt.Run(microCfg(1, 2), func(p *mpirt.Proc) {
		switch p.Rank() {
		case 0:
			for t := 0; t < backlog; t++ {
				p.Send(1, tags.BenchParked+t, 8, nil, nil)
			}
			for i := 0; i < b.N; i++ {
				p.Send(1, tags.BenchPing, 8, nil, nil)
				p.Recv(1, tags.BenchPong)
			}
		case 1:
			for i := 0; i < b.N; i++ {
				p.Recv(0, tags.BenchPing)
				p.Send(0, tags.BenchPong, 8, nil, nil)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// microMatchWildcard is the AnySource/AnyTag scan path.
func microMatchWildcard(b *testing.B) {
	b.ReportAllocs()
	if _, err := mpirt.Run(microCfg(1, 2), func(p *mpirt.Proc) {
		for i := 0; i < b.N; i++ {
			rot := i % 7
			switch p.Rank() {
			case 0:
				p.Send(1, tags.BenchRotBase+rot, 8, nil, nil)
				p.Recv(1, tags.BenchPong)
			case 1:
				p.Recv(mpirt.AnySource, mpirt.AnyTag)
				p.Send(0, tags.BenchPong, 8, nil, nil)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// snapshotSends is rank 0 sending a snapshot made by snap to ranks
// 1..fan each iteration; each releases its message and answers with a
// size-only pong.
func snapshotSends(b *testing.B, fan, size int, snap func(p *mpirt.Proc) mpirt.Snapshot) {
	b.ReportAllocs()
	if _, err := mpirt.Run(microCfg(1, max(2, fan/2+1)), func(p *mpirt.Proc) {
		for i := 0; i < b.N; i++ {
			switch r := p.Rank(); {
			case r == 0:
				s := snap(p)
				for dst := 1; dst <= fan; dst++ {
					p.SendSnapshot(dst, tags.BenchPing, size, s, nil, -1)
				}
				s.Release()
				for dst := 1; dst <= fan; dst++ {
					p.Recv(dst, tags.BenchPong)
				}
			case r <= fan:
				m := p.Recv(0, tags.BenchPing)
				m.Release()
				p.Send(0, tags.BenchPong, 8, nil, nil)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// microGatherSend is an origin's send: an 8 KiB buffer copied into one
// pooled snapshot, sent, and released on receipt.
func microGatherSend(b *testing.B) {
	src := make([]byte, 8<<10)
	snapshotSends(b, 1, len(src), func(p *mpirt.Proc) mpirt.Snapshot { return p.Gather(src) })
}

// microSharedSnapshot is the fan-out: one 8 KiB snapshot sent to eight
// destinations, each of which releases its message; the last release
// returns the buffer to the pool.
func microSharedSnapshot(b *testing.B) {
	src := make([]byte, 8<<10)
	snapshotSends(b, 8, len(src), func(p *mpirt.Proc) mpirt.Snapshot { return p.Gather(src) })
}

// microComposeSend is a relay's send: three runs of two 4 KiB snapshots,
// held throughout, composed without a copy, sent and released on
// receipt, which hands the composite back to its pool.
func microComposeSend(b *testing.B) {
	src := make([]byte, 4<<10)
	var runs []mpirt.Piece
	snapshotSends(b, 1, 8<<10, func(p *mpirt.Proc) mpirt.Snapshot {
		if runs == nil {
			x, y := p.Gather(src), p.Gather(src)
			runs = []mpirt.Piece{x.Whole().Slice(0, 1<<10), y.Whole(), x.Whole().Slice(1<<10, 4<<10)}
		}
		return p.Compose(runs)
	})
}

// microPoolRoundtrip cycles a mid-size payload through the pool via
// the public path: eager snapshot on Send, Release on receipt.
func microPoolRoundtrip(b *testing.B) {
	b.ReportAllocs()
	payload := make([]byte, 1500)
	if _, err := mpirt.Run(microCfg(1, 2), func(p *mpirt.Proc) {
		for i := 0; i < b.N; i++ {
			switch p.Rank() {
			case 0:
				p.Send(1, tags.BenchPing, len(payload), payload, nil)
				m := p.Recv(1, tags.BenchPong)
				m.Release()
			case 1:
				m := p.Recv(0, tags.BenchPing)
				m.Release()
				p.Send(0, tags.BenchPong, len(payload), payload, nil)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// microCacheHit is the plan-cache hit path a planner service rides on
// every warm request: one Get against a populated cache. The cache/
// prefix puts it under the zero-alloc guard — a hit must not allocate.
func microCacheHit(b *testing.B) {
	b.ReportAllocs()
	cache := plancache.New(plancache.Config{MaxBytes: 1 << 20})
	key := plancache.Key{Topo: 7, Graph: 42, Algo: "dh", Param: 4}
	if _, err := cache.GetOrBuild(key, func() (any, int64, error) {
		return &struct{ x int }{1}, 128, nil
	}); err != nil {
		b.Fatal(err)
	}
	// A second resident key keeps the LRU touch from degenerating to
	// the head==e fast path alone.
	key2 := plancache.Key{Topo: 8, Graph: 43, Algo: "cn", Param: 2}
	if _, err := cache.GetOrBuild(key2, func() (any, int64, error) {
		return &struct{ x int }{2}, 128, nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key
		if i&1 == 1 {
			k = key2
		}
		if _, ok := cache.Get(k); !ok {
			b.Fatal("cache miss on resident key")
		}
	}
}

// microBarrier is the full-communicator barrier on two nodes.
func microBarrier(b *testing.B) {
	b.ReportAllocs()
	if _, err := mpirt.Run(microCfg(2, 4), func(p *mpirt.Proc) {
		for i := 0; i < b.N; i++ {
			p.Barrier()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// microAllgatherStep is the per-step shape of the halving schedule:
// send a block to the next rank, receive from the previous one, merge.
func microAllgatherStep(b *testing.B) {
	b.ReportAllocs()
	const m = 1024
	if _, err := mpirt.Run(microCfg(1, 4), func(p *mpirt.Proc) {
		n := p.Size()
		r := p.Rank()
		sbuf := make([]byte, m)
		rbuf := make([]byte, m)
		next, prev := (r+1)%n, (r+n-1)%n
		for i := 0; i < b.N; i++ {
			p.Send(next, tags.BenchStep, m, sbuf, nil)
			msg := p.Recv(prev, tags.BenchStep)
			copy(rbuf, msg.Data)
			msg.Release()
		}
	}); err != nil {
		b.Fatal(err)
	}
}
