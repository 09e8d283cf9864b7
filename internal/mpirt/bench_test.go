// Micro-benchmarks of the runtime hot paths the simulator spends its
// wall clock in: point-to-point matching (indexed, wildcard, stepped
// and slot-hinted), probes, the error-returning sends and receives, the
// payload pool and snapshots, the barrier, and one end-to-end
// allgather-like step. Run with -benchmem. Each hot path is written
// once, as a run of iters operations on a fresh runtime; its Benchmark
// times it, and TestHotPathsZeroAlloc holds every one of them to 0
// allocs/op once warm (see DESIGN.md §9).
package mpirt

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"nbrallgather/internal/topology"
)

func benchCfg(nodes, rps int) Config {
	return Config{Cluster: topology.Niagara(nodes, rps), WallLimit: 5 * time.Minute}
}

// bench times iters = b.N operations of run.
func bench(b *testing.B, run func(iters int) error) {
	b.ReportAllocs()
	if err := run(b.N); err != nil {
		b.Fatal(err)
	}
}

// sendRecv is the raw eager round trip of size-byte payloads between
// two ranks — the floor under every simulated collective; at 1500 bytes
// it cycles a mid-size payload through the pool by the public path:
// snapshot on Send, Release on receipt.
func sendRecv(size int) func(iters int) error {
	payload := make([]byte, size)
	return func(iters int) error {
		_, err := Run(benchCfg(1, 2), func(p *Proc) {
			for i := 0; i < iters; i++ {
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
		return err
	}
}

// parkResume is the event engine's hand-off in isolation: two ranks
// ping-pong phantom messages, so every message costs each side one park
// and one resume — two coroutine switches through the loop and one
// queue push/pop.
func parkResume(iters int) error {
	cfg := benchCfg(1, 2)
	cfg.Engine, cfg.Phantom = EngineEvent, true
	_, err := Run(cfg, func(p *Proc) {
		for i := 0; i < iters; i++ {
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
	return err
}

// matchIndexed receives from a mailbox holding pending messages on many
// other (src, tag) lists. With the indexed match lists this is O(1) per
// receive regardless of backlog; the old linear queue rescanned every
// pending message.
func matchIndexed(iters int) error {
	const backlog = 64
	_, err := Run(benchCfg(1, 2), func(p *Proc) {
		switch p.Rank() {
		case 0:
			// Park a backlog of never-received messages on distinct
			// tags, then time receives that must match around them.
			for t := 0; t < backlog; t++ {
				p.Send(1, 1000+t, 8, nil, nil)
			}
			for i := 0; i < iters; i++ {
				p.Send(1, 0, 8, nil, nil)
				p.Recv(1, 1)
			}
		case 1:
			for i := 0; i < iters; i++ {
				p.Recv(0, 0)
				p.Send(0, 1, 8, nil, nil)
			}
		}
	})
	return err
}

// matchWildcard is the AnySource/AnyTag path: the one receive shape
// that must scan the match lists to reproduce the single-queue FIFO
// arrival order.
func matchWildcard(iters int) error {
	_, err := Run(benchCfg(1, 2), func(p *Proc) {
		for i := 0; i < iters; i++ {
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
	return err
}

// probeRecv is the phantom round trip with rank 1 probing before each
// receive: once a (src, tag) nothing sends on, once the ping's.
func probeRecv(iters int) error {
	_, err := Run(benchCfg(1, 2), func(p *Proc) {
		for i := 0; i < iters; i++ {
			switch p.Rank() {
			case 0:
				p.Send(1, 0, 8, nil, nil)
				p.Recv(1, 1)
			case 1:
				p.Probe(0, 2)
				p.Probe(0, 0)
				p.Recv(0, 0)
				p.Send(0, 1, 8, nil, nil)
			}
		}
	})
	return err
}

// sendRecvErr is sendRecv(64) through SendErr and RecvErr, the calls
// the fault-tolerant collectives make.
func sendRecvErr(iters int) error {
	payload := make([]byte, 64)
	_, err := Run(benchCfg(1, 2), func(p *Proc) {
		for i := 0; i < iters; i++ {
			var m Msg
			var err error
			switch p.Rank() {
			case 0:
				if err = p.SendErr(1, 0, len(payload), payload, nil); err == nil {
					m, err = p.RecvErr(1, 1)
				}
			case 1:
				if m, err = p.RecvErr(0, 0); err == nil {
					err = p.SendErr(0, 1, len(payload), payload, nil)
				}
			}
			m.Release()
			if err != nil {
				panic(err)
			}
		}
	})
	return err
}

// barrier is iters full-communicator barriers on a two-node cluster.
func barrier(iters int) error {
	_, err := Run(benchCfg(2, 4), func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Barrier()
		}
	})
	return err
}

// barrierSteps is barrier as a Stepper, through CollectiveTimeStep: a
// rank that is not its generation's completer suspends in reduceMax and
// finishes the generation on its next Step.
type barrierSteps struct{ left int }

func (s *barrierSteps) Step(p *Proc) bool {
	for ; s.left > 0; s.left-- {
		if _, ok := p.CollectiveTimeStep(); !ok {
			return false
		}
	}
	return true
}

func steppedBarrier(iters int) error {
	_, err := RunSteppers(benchCfg(2, 4), func(*Proc) Stepper { return &barrierSteps{left: iters} })
	return err
}

// pingPong is sendRecv's round trip as a Stepper: the event loop calls
// Step where it would switch into the rank's coroutine, and a receive
// with nothing queued suspends instead of parking.
type pingPong struct {
	left    int
	sent    bool // rank 0: this round's ping is out
	payload []byte
	slot    int // the hint every send and receive carries: 0, or -1 for none
}

func (s *pingPong) send(p *Proc, dst, tag int) {
	snap := p.Gather(s.payload)
	p.SendSnapshot(dst, tag, len(s.payload), snap, nil, s.slot)
	snap.Release()
}

func (s *pingPong) Step(p *Proc) bool {
	for ; s.left > 0; s.left-- {
		switch p.Rank() {
		case 0:
			if !s.sent {
				s.send(p, 1, 0)
				s.sent = true
			}
			m, ok := p.RecvStep(1, 1, s.slot)
			if !ok {
				return false
			}
			m.Release()
			s.sent = false
		case 1:
			m, ok := p.RecvStep(0, 0, s.slot)
			if !ok {
				return false
			}
			m.Release()
			s.send(p, 0, 1)
		}
	}
	return true
}

// steppedPingPong runs pingPong with every message hinted into mailbox
// slot slot: 0 is the round trip as a plan pass issues it — each rank
// posts one receive and every message lands in that slot instead of
// being hashed onto its (src, tag) list — and −1 sends no hint.
func steppedPingPong(slot int) func(iters int) error {
	payload := make([]byte, 64)
	recvs := []int32{1, 1, 0, 0} // ranks 0 and 1 play, of benchCfg(1, 2)'s four
	return func(iters int) error {
		_, err := RunSteppers(benchCfg(1, 2), func(p *Proc) Stepper {
			p.Slots(recvs)
			return &pingPong{left: iters, payload: payload, slot: slot}
		})
		return err
	}
}

// snapshotSends is rank 0 sending a snapshot made by snap to ranks
// 1..fan each iteration; each releases its message and answers with a
// size-only pong.
func snapshotSends(iters, fan, size int, snap func(p *Proc) Snapshot) error {
	_, err := Run(benchCfg(1, max(2, fan/2+1)), func(p *Proc) {
		for i := 0; i < iters; i++ {
			switch r := p.Rank(); {
			case r == 0:
				s := snap(p)
				for dst := 1; dst <= fan; dst++ {
					p.SendSnapshot(dst, 0, size, s, nil, -1)
				}
				s.Release()
				for dst := 1; dst <= fan; dst++ {
					p.Recv(dst, 1)
				}
			case r <= fan:
				m := p.Recv(0, 0)
				m.Release()
				p.Send(0, 1, 8, nil, nil)
			}
		}
	})
	return err
}

// gatherSend is an origin's send: an 8 KiB buffer copied into one
// pooled snapshot, sent, and released on receipt.
func gatherSend(iters int) error {
	src := make([]byte, 8<<10)
	return snapshotSends(iters, 1, len(src), func(p *Proc) Snapshot { return p.Gather(src) })
}

// sharedSnapshot is the fan-out: one 8 KiB snapshot sent to eight
// destinations, each of which releases its message; the last release
// returns the buffer to the pool.
func sharedSnapshot(iters int) error {
	src := make([]byte, 8<<10)
	return snapshotSends(iters, 8, len(src), func(p *Proc) Snapshot { return p.Gather(src) })
}

// composeSend is a relay's send: three runs of two 4 KiB snapshots,
// held throughout, composed without a copy, sent and released on
// receipt, which hands the composite back to its pool.
func composeSend(iters int) error {
	src := make([]byte, 4<<10)
	var runs []Piece
	return snapshotSends(iters, 1, 8<<10, func(p *Proc) Snapshot {
		if runs == nil {
			x, y := p.Gather(src), p.Gather(src)
			runs = []Piece{x.Whole().Slice(0, 1<<10), y.Whole(), x.Whole().Slice(1<<10, 4<<10)}
		}
		return p.Compose(runs)
	})
}

func BenchmarkSendRecv(b *testing.B)        { bench(b, sendRecv(64)) }
func BenchmarkEventParkResume(b *testing.B) { bench(b, parkResume) }
func BenchmarkMatchIndexed(b *testing.B)    { bench(b, matchIndexed) }
func BenchmarkMatchWildcard(b *testing.B)   { bench(b, matchWildcard) }
func BenchmarkSendRecvStepped(b *testing.B) { bench(b, steppedPingPong(-1)) }
func BenchmarkSendRecvHinted(b *testing.B)  { bench(b, steppedPingPong(0)) }
func BenchmarkGatherSend(b *testing.B)      { bench(b, gatherSend) }
func BenchmarkSharedSnapshot(b *testing.B)  { bench(b, sharedSnapshot) }
func BenchmarkComposeSend(b *testing.B)     { bench(b, composeSend) }
func BenchmarkProbe(b *testing.B)           { bench(b, probeRecv) }
func BenchmarkSendRecvErr(b *testing.B)     { bench(b, sendRecvErr) }
func BenchmarkBarrier(b *testing.B)         { bench(b, barrier) }
func BenchmarkBarrierStepped(b *testing.B)  { bench(b, steppedBarrier) }

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

// TestHotPathsZeroAlloc is the runtime's hot-path contract: once warm,
// no row allocates. Each row pins hot roots — sendrecv and its stepped,
// hinted and pool rows: Send, Recv, RecvStep, SendSnapshot, Gather and
// Msg.Release; match-indexed and match-wildcard: the mailbox's two
// match paths; gather-send, shared-snapshot and compose-send: Gather,
// Compose and the snapshot holder counts; probe: Probe; sendrecv-err:
// SendErr and RecvErr; barrier and barrier-stepped: reduceMax through
// Barrier and through CollectiveTimeStep; park-resume: the event loop.
// The plan cache's Cache.Get is pinned by its own TestGetZeroAlloc.
// Failure paths (typed errors, deadlock reports, chaos, fault
// injection) are cold and may allocate. A path's allocs/op is what -benchmem reads, rounded down, over
// ops warm operations: the mallocs of a run of warm+ops operations less
// those of a run of warm. Both runs start from pools a first run of warm
// filled, so their set-up costs cancel.
func TestHotPathsZeroAlloc(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector makes sync.Pool drop items at random")
			}
		}
	}
	// No collection may empty a pool between the runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, ops = 1000, 1000
	mallocs := func(t *testing.T, run func(int) error, iters int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(iters); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	for _, tc := range []struct {
		name string
		run  func(iters int) error
	}{
		{"p2p/sendrecv", sendRecv(64)},
		{"p2p/sendrecv-stepped", steppedPingPong(-1)},
		{"p2p/sendrecv-hinted", steppedPingPong(0)},
		{"p2p/match-indexed", matchIndexed},
		{"p2p/match-wildcard", matchWildcard},
		{"p2p/gather-send", gatherSend},
		{"p2p/shared-snapshot", sharedSnapshot},
		{"p2p/compose-send", composeSend},
		{"p2p/probe", probeRecv},
		{"p2p/sendrecv-err", sendRecvErr},
		{"sync/barrier", barrier},
		{"sync/barrier-stepped", steppedBarrier},
		{"pool/payload-roundtrip", sendRecv(1500)},
		{"event/park-resume", parkResume},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mallocs(t, tc.run, warm)
			if a := (mallocs(t, tc.run, warm+ops) - mallocs(t, tc.run, warm)) / ops; a > 0 {
				t.Errorf("%d allocs/op over %d warm ops, want 0", a, ops)
			}
		})
	}
}
