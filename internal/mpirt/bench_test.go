// Micro-benchmarks of the runtime hot paths the simulator spends its
// wall clock in: point-to-point matching (indexed and wildcard), the
// payload buffer pool, the barrier, and one end-to-end allgather-like
// step. Run with -benchmem; the P2P paths are expected to stay at
// 0 allocs/op (see DESIGN.md §9).
package mpirt

import (
	"testing"
	"time"

	"nbrallgather/internal/topology"
)

func benchCfg(nodes, rps int) Config {
	return Config{Cluster: topology.Niagara(nodes, rps), WallLimit: 5 * time.Minute}
}

// BenchmarkSendRecv is the raw eager-send/receive round trip between
// two ranks — the floor under every simulated collective.
func BenchmarkSendRecv(b *testing.B) {
	b.ReportAllocs()
	payload := make([]byte, 64)
	_, err := Run(benchCfg(1, 2), func(p *Proc) {
		for i := 0; i < b.N; i++ {
			switch p.Rank() {
			case 0:
				p.Send(1, 0, len(payload), payload, nil)
				m := p.Recv(1, 1)
				m.Release()
			case 1:
				m := p.Recv(0, 0)
				m.Release()
				p.Send(0, 1, len(payload), payload, nil)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventParkResume is the event engine's hand-off in
// isolation: two ranks ping-pong, so every message costs each side one
// park and one resume — two coroutine switches through the loop and
// one queue push/pop — and nothing may allocate.
func BenchmarkEventParkResume(b *testing.B) {
	b.ReportAllocs()
	cfg := benchCfg(1, 2)
	cfg.Engine, cfg.Phantom = EngineEvent, true
	_, err := Run(cfg, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			switch p.Rank() {
			case 0:
				p.Send(1, 0, 8, nil, nil)
				p.Recv(1, 1)
			case 1:
				p.Recv(0, 0)
				p.Send(0, 1, 8, nil, nil)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMatchIndexed receives from a mailbox holding pending
// messages on many other (src, tag) lists. With the indexed match
// lists this is O(1) per receive regardless of backlog; the old linear
// queue rescanned every pending message.
func BenchmarkMatchIndexed(b *testing.B) {
	b.ReportAllocs()
	const backlog = 64
	_, err := Run(benchCfg(1, 2), func(p *Proc) {
		switch p.Rank() {
		case 0:
			// Park a backlog of never-received messages on distinct
			// tags, then time receives that must match around them.
			for t := 0; t < backlog; t++ {
				p.Send(1, 1000+t, 8, nil, nil)
			}
			for i := 0; i < b.N; i++ {
				p.Send(1, 0, 8, nil, nil)
				p.Recv(1, 1)
			}
		case 1:
			for i := 0; i < b.N; i++ {
				p.Recv(0, 0)
				p.Send(0, 1, 8, nil, nil)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMatchWildcard is the AnySource/AnyTag path: the one receive
// shape that must scan the match lists to reproduce the single-queue
// FIFO arrival order.
func BenchmarkMatchWildcard(b *testing.B) {
	b.ReportAllocs()
	_, err := Run(benchCfg(1, 2), func(p *Proc) {
		for i := 0; i < b.N; i++ {
			switch p.Rank() {
			case 0:
				p.Send(1, i%7, 8, nil, nil)
				p.Recv(1, 1)
			case 1:
				p.Recv(AnySource, AnyTag)
				p.Send(0, 1, 8, nil, nil)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBufferPool is the size-classed payload pool in isolation:
// one get/put cycle per op at a mid-size class.
func BenchmarkBufferPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pb, buf := allocPayload(1500)
		buf[0] = byte(i)
		releasePayload(pb)
	}
}

// BenchmarkBarrier measures the full-communicator barrier on a
// two-node cluster.
func BenchmarkBarrier(b *testing.B) {
	b.ReportAllocs()
	_, err := Run(benchCfg(2, 4), func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllgatherStep is an end-to-end neighborhood-exchange step:
// every rank sends its block to the next rank and receives from the
// previous one — the per-step shape of the halving schedule, with real
// payload bytes moving through the pool.
func BenchmarkAllgatherStep(b *testing.B) {
	b.ReportAllocs()
	const m = 1024
	_, err := Run(benchCfg(1, 4), func(p *Proc) {
		n := p.Size()
		r := p.Rank()
		sbuf := make([]byte, m)
		rbuf := make([]byte, m)
		next, prev := (r+1)%n, (r+n-1)%n
		for i := 0; i < b.N; i++ {
			p.Send(next, 3, m, sbuf, nil)
			msg := p.Recv(prev, 3)
			copy(rbuf, msg.Data)
			msg.Release()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
