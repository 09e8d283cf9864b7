package mpirt

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/topology"
)

func smallCluster() topology.Cluster {
	return topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
}

// bothEngines runs f as one subtest per plain driver, so `go test`
// exercises the threaded oracle and the event default alike on any
// machine.
func bothEngines(t *testing.T, f func(t *testing.T, eng Engine)) {
	t.Helper()
	for _, eng := range Engines() {
		t.Run(string(eng), func(t *testing.T) { f(t, eng) })
	}
}

// allDrivers runs f once per driver: each engine, then chaos (a
// schedule-only seed), with cfg selecting it.
func allDrivers(t *testing.T, f func(t *testing.T, cfg Config)) {
	t.Helper()
	bothEngines(t, func(t *testing.T, eng Engine) { f(t, Config{Engine: eng}) })
	t.Run("chaos", func(t *testing.T) { f(t, Config{Chaos: ScheduleOnly(1)}) })
}

// run executes body on the small cluster under each engine; check, if
// given, inspects each engine's report.
func run(t *testing.T, body func(*Proc), check ...func(t *testing.T, rep *Report)) {
	t.Helper()
	bothEngines(t, func(t *testing.T, eng Engine) {
		rep, err := Run(Config{Cluster: smallCluster(), WallLimit: 20 * time.Second, Engine: eng}, body)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range check {
			c(t, rep)
		}
	})
}

func TestPingPong(t *testing.T) {
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 5, 4, []byte("ping"), nil)
			msg := p.Recv(1, 6)
			if string(msg.Data) != "pong" {
				panic("bad reply")
			}
		case 1:
			msg := p.Recv(0, 5)
			if string(msg.Data) != "ping" || msg.Src != 0 || msg.Tag != 5 {
				panic(fmt.Sprintf("bad ping: %+v", msg))
			}
			p.Send(0, 6, 4, []byte("pong"), nil)
		}
	})
}

func TestSendBufferReusableAfterSend(t *testing.T) {
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			buf := []byte{1, 2, 3}
			p.Send(1, 0, 3, buf, nil)
			buf[0] = 99 // must not corrupt the in-flight message
		case 1:
			msg := p.Recv(0, 0)
			if msg.Data[0] != 1 {
				panic("eager send did not snapshot the payload")
			}
		}
	})
}

func TestAnySourceAndAnyTag(t *testing.T) {
	run(t, func(p *Proc) {
		if p.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < p.Size()-1; i++ {
				msg := p.Recv(AnySource, AnyTag)
				if seen[msg.Src] {
					panic("duplicate source")
				}
				seen[msg.Src] = true
				if msg.Tag != 100+msg.Src {
					panic("tag mismatch")
				}
			}
		} else {
			p.Send(0, 100+p.Rank(), 1, []byte{byte(p.Rank())}, nil)
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			// Send tag 2 first, then tag 1: receiver asks for 1 first.
			p.Send(1, 2, 1, []byte{2}, nil)
			p.Send(1, 1, 1, []byte{1}, nil)
		case 1:
			m1 := p.Recv(0, 1)
			m2 := p.Recv(0, 2)
			if m1.Data[0] != 1 || m2.Data[0] != 2 {
				panic("tag matching failed")
			}
		}
	})
}

func TestFIFOPerSender(t *testing.T) {
	const k = 50
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			for i := 0; i < k; i++ {
				p.Send(1, 7, 1, []byte{byte(i)}, nil)
			}
		case 1:
			for i := 0; i < k; i++ {
				msg := p.Recv(0, 7)
				if msg.Data[0] != byte(i) {
					panic(fmt.Sprintf("message %d arrived out of order", i))
				}
			}
		}
	})
}

func TestNonblockingWaitAll(t *testing.T) {
	run(t, func(p *Proc) {
		n := p.Size()
		for dst := 0; dst < n; dst++ {
			if dst != p.Rank() {
				p.Send(dst, 3, 1, []byte{byte(p.Rank())}, nil)
			}
		}
		for src := 0; src < n; src++ {
			if src == p.Rank() {
				continue
			}
			if got := p.Recv(src, 3); got.Src != src || got.Data[0] != byte(src) {
				panic("wrong payload")
			}
		}
	})
}

func TestMetaRoundTrip(t *testing.T) {
	type payload struct{ X, Y int }
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 0, 0, nil, payload{3, 4})
		case 1:
			msg := p.Recv(0, 0)
			if msg.Meta.(payload) != (payload{3, 4}) {
				panic("meta lost")
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	run(t, func(p *Proc) {
		p.AdvanceVT(float64(p.Rank()) * 1e-3)
		p.Barrier()
		if p.VT() < 7e-3 {
			panic(fmt.Sprintf("rank %d clock %.4g below barrier max", p.Rank(), p.VT()))
		}
	})
}

func TestCollectiveTimeIdentical(t *testing.T) {
	var times [8]float64
	run(t, func(p *Proc) {
		p.SyncResetTime()
		p.AdvanceVT(float64(p.Rank()+1) * 1e-3)
		times[p.Rank()] = p.CollectiveTime()
	}, func(t *testing.T, _ *Report) {
		for r, v := range times {
			if v != times[0] {
				t.Fatalf("rank %d got %.4g, rank 0 %.4g", r, v, times[0])
			}
		}
		if times[0] < 8e-3 {
			t.Fatalf("collective time %.4g below slowest rank", times[0])
		}
	})
}

func TestSyncResetTime(t *testing.T) {
	run(t, func(p *Proc) {
		p.AdvanceVT(1)
		p.SyncResetTime()
		if p.VT() != 0 {
			panic("clock not reset")
		}
	})
}

func TestVirtualTimeAdvancesOnRecv(t *testing.T) {
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(7, 0, 1<<20, make([]byte, 1<<20), nil) // cross-group message
		case 7:
			before := p.VT()
			p.Recv(0, 0)
			if p.VT() <= before {
				panic("recv did not advance clock")
			}
			min := float64(1<<20) / 12e9 // at least a NIC transmission time
			if p.VT() < min {
				panic(fmt.Sprintf("clock %.4g below physical floor %.4g", p.VT(), min))
			}
		}
	})
}

func TestReportCounters(t *testing.T) {
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 0, 100, make([]byte, 100), nil) // socket
			p.Send(2, 0, 100, make([]byte, 100), nil) // node
			p.Send(4, 0, 100, make([]byte, 100), nil) // group
			p.Send(7, 0, 100, make([]byte, 100), nil) // global? rank 7 is node 1 → group 0
		case 1, 2, 4, 7:
			p.Recv(0, 0)
		}
	}, func(t *testing.T, rep *Report) {
		if rep.Msgs() != 4 || rep.Bytes() != 400 {
			t.Fatalf("Msgs=%d Bytes=%d", rep.Msgs(), rep.Bytes())
		}
		if rep.MsgsByDist[topology.DistSocket] != 1 || rep.MsgsByDist[topology.DistNode] != 1 {
			t.Fatalf("distance histogram wrong: %v", rep.MsgsByDist)
		}
		if rep.OffSocketMsgs() != 3 {
			t.Fatalf("OffSocketMsgs = %d", rep.OffSocketMsgs())
		}
		if rep.MaxRankMsgs != 4 {
			t.Fatalf("MaxRankMsgs = %d", rep.MaxRankMsgs)
		}
	})
}

func TestPhantomMode(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		rep, err := Run(Config{Cluster: smallCluster(), Phantom: true, Engine: eng}, func(p *Proc) {
			switch p.Rank() {
			case 0:
				if s := p.Compose(nil); s.data != nil || s.pb != nil {
					panic("Compose returned a real snapshot in phantom mode")
				}
				p.Send(1, 0, 1<<20, nil, "meta survives")
			case 1:
				msg := p.Recv(0, 0)
				if msg.Data != nil || msg.Size != 1<<20 || msg.Meta.(string) != "meta survives" {
					panic("phantom message wrong")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Bytes() != 1<<20 {
			t.Fatalf("phantom bytes not counted: %d", rep.Bytes())
		}
	})
}

func TestDeadlockDetected(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		_, err := Run(Config{Cluster: smallCluster(), WallLimit: 30 * time.Second, Engine: eng}, func(p *Proc) {
			p.Recv(AnySource, 0) // nobody sends
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("expected deadlock error, got %v", err)
		}
	})
}

func TestPartialDeadlockDetected(t *testing.T) {
	// Half the ranks finish; the rest block forever.
	bothEngines(t, func(t *testing.T, eng Engine) {
		_, err := Run(Config{Cluster: smallCluster(), WallLimit: 30 * time.Second, Engine: eng}, func(p *Proc) {
			if p.Rank()%2 == 0 {
				p.Recv(AnySource, 9)
			}
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("expected deadlock error, got %v", err)
		}
	})
}

func TestRankPanicPropagates(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		_, err := Run(Config{Cluster: smallCluster(), WallLimit: 20 * time.Second, Engine: eng}, func(p *Proc) {
			if p.Rank() == 3 {
				panic("boom")
			}
			p.Barrier() // would deadlock without abort propagation
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("expected rank panic error, got %v", err)
		}
	})
}

// TestWallLimitAborts: a rank body hogging the host (not parked in the
// runtime) must not keep Run past WallLimit on any driver — on the
// serial ones the hog holds the loop inside its coroutine switch, so
// Run has to be able to walk away from both. The limit's timer is the
// one caller that reaches a serial run's lock-free state from another
// goroutine (Runtime.fail); -race checks that it stays race-free.
func TestWallLimitAborts(t *testing.T) {
	allDrivers(t, func(t *testing.T, cfg Config) {
		start := time.Now()
		cfg.Cluster, cfg.WallLimit = smallCluster(), 300*time.Millisecond
		_, err := Run(cfg, func(p *Proc) {
			if p.Rank() == 0 {
				time.Sleep(5 * time.Second) // hog: not blocked in recv, so no deadlock verdict
			}
			p.Barrier()
		})
		if err == nil || !strings.Contains(err.Error(), "wall-clock") {
			t.Fatalf("expected wall-limit error, got %v", err)
		}
		if time.Since(start) > 3*time.Second {
			t.Fatal("wall limit did not abort promptly")
		}
	})
}

func TestInvalidConfig(t *testing.T) {
	if _, err := Run(Config{}, func(*Proc) {}); err == nil {
		t.Error("accepted zero config")
	}
	if _, err := Run(Config{Cluster: smallCluster(), Ranks: 100}, func(*Proc) {}); err == nil {
		t.Error("accepted oversubscribed rank count")
	}
}

func TestSendValidation(t *testing.T) {
	cases := map[string]func(p *Proc){
		"invalid destination": func(p *Proc) { p.Send(99, 0, 0, nil, nil) },
		"negative size":       func(p *Proc) { p.Send(1, 0, -1, nil, nil) },
		"size mismatch":       func(p *Proc) { p.Send(1, 0, 5, []byte{1}, nil) },
		"composite size mismatch": func(p *Proc) {
			s := p.Gather([]byte{1, 2, 3})
			run := s.Whole()
			p.SendSnapshot(1, 0, 3, p.Compose([]Piece{run, run.Slice(0, 1)}), nil, -1)
		},
	}
	for name, f := range cases {
		for _, eng := range Engines() {
			_, err := Run(Config{Cluster: smallCluster(), WallLimit: 20 * time.Second, Engine: eng}, func(p *Proc) {
				if p.Rank() == 0 {
					f(p)
				}
			})
			var ue *UsageError
			if !errors.As(err, &ue) {
				t.Errorf("%s on %s: got %v, want a UsageError", name, eng, err)
			}
		}
	}
}

func TestProbe(t *testing.T) {
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 42, 1, []byte{1}, nil)
			p.Send(1, 43, 1, []byte{2}, nil)
		case 1:
			// Wait for the tag-43 message, then probe both.
			p.Recv(0, 43)
			if !p.Probe(0, 42) || !p.Probe(AnySource, AnyTag) {
				panic("probe missed queued message")
			}
			if p.Probe(0, 99) {
				panic("probe matched absent tag")
			}
			p.Recv(0, 42)
		}
	})
}

func TestManyRanksStress(t *testing.T) {
	c := topology.Cluster{Nodes: 8, SocketsPerNode: 2, RanksPerSocket: 8, NodesPerGroup: 4}
	bothEngines(t, func(t *testing.T, eng Engine) {
		var total atomic.Int64
		rep, err := Run(Config{Cluster: c, WallLimit: 60 * time.Second, Engine: eng}, func(p *Proc) {
			// Ring exchange, 3 rounds.
			n := p.Size()
			for round := 0; round < 3; round++ {
				nxt := (p.Rank() + 1) % n
				prv := (p.Rank() - 1 + n) % n
				p.Send(nxt, round, 8, make([]byte, 8), nil)
				p.Recv(prv, round)
				total.Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := total.Load(); got != int64(c.Ranks()*3) {
			t.Fatalf("completed %d receives, want %d", got, c.Ranks()*3)
		}
		if rep.Msgs() != int64(c.Ranks()*3) {
			t.Fatalf("counted %d msgs", rep.Msgs())
		}
	})
}

func TestUniformParamsAccepted(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		_, err := Run(Config{Cluster: smallCluster(), Params: netmodel.UniformParams(), Engine: eng}, func(p *Proc) {
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBarrierStress interleaves hundreds of reduceMax generations to
// shake out the generation bookkeeping.
func TestBarrierStress(t *testing.T) {
	run(t, func(p *Proc) {
		for i := 0; i < 300; i++ {
			p.SyncResetTime()
			p.AdvanceVT(float64(p.Rank()+i) * 1e-6)
			want := float64(p.Size()-1+i) * 1e-6
			got := p.CollectiveTime()
			if got < want*0.999 || got > want*1.001 {
				panic(fmt.Sprintf("iteration %d: collective time %g, want %g", i, got, want))
			}
		}
	})
}

// TestImbalanceAccounting checks the per-rank load indicators.
func TestImbalanceAccounting(t *testing.T) {
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0: // heavy rank: 3 msgs, 300 bytes
			for i := 0; i < 3; i++ {
				p.Send(1, 0, 100, make([]byte, 100), nil)
			}
		case 2: // light rank: 1 msg, 100 bytes
			p.Send(3, 0, 100, make([]byte, 100), nil)
		case 1:
			for i := 0; i < 3; i++ {
				p.Recv(0, 0)
			}
		case 3:
			p.Recv(2, 0)
		}
	}, func(t *testing.T, rep *Report) {
		if rep.MaxRankMsgs != 3 || rep.MaxRankBytes != 300 {
			t.Fatalf("max rank load %d msgs %d bytes", rep.MaxRankMsgs, rep.MaxRankBytes)
		}
		// 4 msgs over 8 ranks → mean 0.5, max 3 → imbalance 6.
		if got := rep.MsgImbalance(); got != 6 {
			t.Fatalf("MsgImbalance = %v, want 6", got)
		}
		if got := rep.ByteImbalance(); got != 6 {
			t.Fatalf("ByteImbalance = %v, want 6", got)
		}
	})
}

// TestZeroSizeMessages: zero-byte payloads are legal and still charge
// latency.
func TestZeroSizeMessages(t *testing.T) {
	run(t, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 0, 0, nil, "still has meta")
		case 1:
			before := p.VT()
			msg := p.Recv(0, 0)
			if msg.Size != 0 || msg.Meta.(string) != "still has meta" {
				panic("zero-size message mangled")
			}
			if p.VT() <= before {
				panic("zero-size message advanced no time")
			}
		}
	})
}
