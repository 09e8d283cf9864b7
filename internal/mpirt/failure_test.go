package mpirt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"nbrallgather/internal/topology"
	"nbrallgather/internal/trace"
)

func failureCluster() topology.Cluster {
	return topology.Cluster{Nodes: 2, SocketsPerNode: 2, RanksPerSocket: 2, NodesPerGroup: 2}
}

// awaitDead polls until peer's death is visible to p. The Yield makes
// the poll cooperative: a bare spin would starve the serial engines.
func awaitDead(p *Proc, peer int) {
	for !p.Failed(peer) {
		p.Yield()
	}
}

// TestProbeDeadPeer pins Probe against a dead peer: queued pre-crash
// messages still probe true and deliver; after the queue drains, the
// dead peer probes false and Recv returns the typed failure.
func TestProbeDeadPeer(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		rep, err := Run(Config{Engine: eng, Cluster: failureCluster(), Ranks: 2, Kills: []Kill{{Rank: 1, AfterOps: 1}}}, func(p *Proc) {
			switch p.Rank() {
			case 1:
				p.Send(0, 7, 1, []byte{42}, nil) // delivered: the kill fires on the next operation
				p.Send(0, 8, 1, []byte{43}, nil) // dies here, before sending
				panic("rank 1 survived its kill")
			case 0:
				awaitDead(p, 1)
				if !p.Probe(1, 7) {
					panic("pre-crash message did not probe true")
				}
				m := p.Recv(1, 7)
				if m.Src != 1 || len(m.Data) != 1 || m.Data[0] != 42 {
					panic(fmt.Sprintf("pre-crash message corrupted: %+v", m))
				}
				if p.Probe(1, 7) || p.Probe(1, 8) {
					panic("dead peer with no queued message probed true")
				}
				if _, rerr := p.RecvErr(1, 8); !isRankFailed(rerr, 1) {
					panic(fmt.Sprintf("RecvErr(dead) = %v, want rank 1 failure", rerr))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rep.DeadRanks) != "[1]" {
			t.Fatalf("DeadRanks = %v, want [1]", rep.DeadRanks)
		}
	})
}

// TestIrecvAnySourceDeadPeer pins the wildcard-receive failure: with
// every peer dead and nothing deliverable, RecvErr(AnySource, AnyTag)
// returns RankFailedError naming the lowest dead rank, with the exact
// ULFM-style message.
func TestIrecvAnySourceDeadPeer(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		_, err := Run(Config{Engine: eng, Cluster: failureCluster(), Ranks: 2, Kills: []Kill{{Rank: 1}}}, func(p *Proc) {
			switch p.Rank() {
			case 1:
				p.Send(0, 1, 1, []byte{1}, nil) // dies at this first operation
				panic("rank 1 survived its kill")
			case 0:
				awaitDead(p, 1)
				_, rerr := p.RecvErr(AnySource, AnyTag)
				var rf *RankFailedError
				if !errors.As(rerr, &rf) || rf.Rank != 1 {
					panic(fmt.Sprintf("RecvErr = %v, want RankFailedError{Rank: 1}", rerr))
				}
				if got, want := rf.Error(), "mpirt: rank 1 failed (fail-stop)"; got != want {
					panic(fmt.Sprintf("error text %q, want %q", got, want))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestWaitObservesAbort pins that a rank parked in Recv is
// released when another rank aborts the run with a usage error: the
// run fails with the typed UsageError instead of hanging.
func TestWaitObservesAbort(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		_, err := Run(Config{Engine: eng, Cluster: failureCluster(), Ranks: 2}, func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Recv(1, 3)
				panic("Recv returned despite peer abort")
			case 1:
				p.Send(99, 0, 1, nil, nil) // invalid destination: aborts the run
			}
		})
		var ue *UsageError
		if !errors.As(err, &ue) {
			t.Fatalf("run error = %v, want UsageError", err)
		}
		if ue.Rank != 1 || ue.Op != "send" {
			t.Fatalf("UsageError = %+v, want rank 1 op send", ue)
		}
	})
}

// TestSendRecvErrTyped pins the error-returning P2P surface against a
// dead peer, including that detection cost lands on the virtual clock
// exactly once per (observer, peer) pair.
func TestSendRecvErrTyped(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		rep, err := Run(Config{Engine: eng, Cluster: failureCluster(), Ranks: 2, Kills: []Kill{{Rank: 1}}}, func(p *Proc) {
			switch p.Rank() {
			case 1:
				p.Send(0, 1, 1, []byte{1}, nil)
			case 0:
				awaitDead(p, 1)
				before := p.VT()
				if serr := p.SendErr(1, 1, 1, []byte{0}, nil); !isRankFailed(serr, 1) {
					panic(fmt.Sprintf("SendErr(dead) = %v", serr))
				}
				if p.VT() < before+100e-6 {
					panic("first detection did not charge the detect timeout")
				}
				mid := p.VT()
				if _, rerr := p.RecvErr(1, 1); !isRankFailed(rerr, 1) {
					panic(fmt.Sprintf("RecvErr(dead) = %v", rerr))
				}
				if p.VT() >= mid+100e-6 {
					panic("second detection of the same peer charged again")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detections != 1 {
			t.Fatalf("Detections = %d, want 1 (memoised per peer)", rep.Detections)
		}
		if rep.DetectTime <= 0 {
			t.Fatalf("DetectTime = %v, want > 0", rep.DetectTime)
		}
	})
}

// TestRevokeWakesBlockedRecv pins Revoke's liveness contract: a rank
// blocked in a receive on a live peer returns CommRevokedError once
// any rank revokes, regardless of ordering — on every driver.
func TestRevokeWakesBlockedRecv(t *testing.T) {
	allDrivers(t, func(t *testing.T, cfg Config) {
		cfg.Cluster, cfg.Ranks = failureCluster(), 2
		_, err := Run(cfg, func(p *Proc) {
			switch p.Rank() {
			case 0:
				_, rerr := p.RecvErr(1, 42)
				var cr *CommRevokedError
				if !errors.As(rerr, &cr) {
					panic(fmt.Sprintf("RecvErr under revoke = %v, want CommRevokedError", rerr))
				}
			case 1:
				p.Revoke()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestAgreeShrinkTranslation pins the survivor communicator: Agree
// completes despite the dead rank, Shrink densifies the survivors, and
// SubProc traffic translates ranks and tags both ways.
func TestAgreeShrinkTranslation(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		c := failureCluster()
		_, err := Run(Config{Engine: eng, Cluster: c, Ranks: 4, Kills: []Kill{{Rank: 2}}}, func(p *Proc) {
			if p.Rank() == 2 {
				p.Send(0, 1, 1, []byte{1}, nil) // dies here
				panic("rank 2 survived its kill")
			}
			if !p.Agree(true) {
				panic("survivor agreement failed")
			}
			comm := p.Shrink()
			if comm.Size() != 3 || fmt.Sprint(comm.Ranks()) != "[0 1 3]" {
				panic(fmt.Sprintf("shrink produced %v", comm))
			}
			if comm.Contains(2) || comm.NewRank(3) != 2 || comm.OldRank(2) != 3 {
				panic(fmt.Sprintf("translation wrong in %v", comm))
			}
			sub := p.Sub(comm, 1000)
			// Ring over shrunken ranks 0→1→2→0, tag 5 in sub space.
			next := (sub.Rank() + 1) % sub.Size()
			prev := (sub.Rank() + 2) % sub.Size()
			sub.Send(next, 5, 1, []byte{byte(sub.Rank())}, nil)
			m := sub.Recv(prev, 5)
			if m.Src != prev || m.Tag != 5 || m.Data[0] != byte(prev) {
				panic(fmt.Sprintf("sub rank %d got %+v, want src=%d tag=5", sub.Rank(), m, prev))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBarrierDeadTolerant pins that Barrier completes for survivors
// once the missing rank is dead instead of hanging.
func TestBarrierDeadTolerant(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		_, err := Run(Config{Engine: eng, Cluster: failureCluster(), Ranks: 4, Kills: []Kill{{Rank: 3}}}, func(p *Proc) {
			if p.Rank() == 3 {
				p.Send(0, 1, 1, []byte{1}, nil) // dies here
				return
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlockedSummaryNamesPeers pins the deadlock diagnostics: the
// error names each blocked rank's pending receive (peer and tag) and
// lists dead ranks. The blocked shape is an acyclic chain ending in a
// barrier (0 waits on 1, 1 waits on 2, 2 in a barrier nobody else
// joins), so it is the threaded driver's runnable count, the event
// loop's empty queue or the chaos scheduler's empty option list — not
// the wait-for-graph detector, which only proves cycles — that reports
// it, with the one summary every driver shares.
func TestBlockedSummaryNamesPeers(t *testing.T) {
	allDrivers(t, func(t *testing.T, cfg Config) {
		cfg.Cluster, cfg.Ranks, cfg.Kills = failureCluster(), 4, []Kill{{Rank: 3}}
		_, err := Run(cfg, func(p *Proc) {
			switch p.Rank() {
			case 3:
				p.Send(0, 99, 1, []byte{1}, nil) // dies here
			case 0:
				p.Recv(1, 5)
			case 1:
				p.Recv(2, 6)
			case 2:
				p.Barrier()
			}
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("expected deadlock, got %v", err)
		}
		for _, want := range []string{"rank 0: recv src=1 tag=5", "rank 1: recv src=2 tag=6", "rank 2: barrier", "dead ranks [3]"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("deadlock summary %q lacks %q", err, want)
			}
		}
	})
}

// TestChaosKillDeterminism pins fail-stop chaos runs: the same seed
// records the same schedule (kills and fail-notify decisions
// included), and replaying it reproduces the run bit-exactly.
func TestChaosKillDeterminism(t *testing.T) {
	c := failureCluster()
	run := func(ch *Chaos) []string {
		outcomes := make([]string, 4)
		var mu sync.Mutex
		_, err := Run(Config{Cluster: c, Ranks: 4, Chaos: ch, Kills: []Kill{{Rank: 2, AfterOps: 1}}}, func(p *Proc) {
			r := p.Rank()
			var got []string
			for _, dst := range []int{(r + 1) % 4, (r + 2) % 4} {
				if serr := p.SendErr(dst, 9, 1, []byte{byte(r)}, nil); serr != nil {
					got = append(got, fmt.Sprintf("send %d: %v", dst, serr))
				}
			}
			for _, src := range []int{(r + 3) % 4, (r + 2) % 4} {
				m, rerr := p.RecvErr(src, 9)
				if rerr != nil {
					got = append(got, fmt.Sprintf("recv %d: %v", src, rerr))
				} else {
					got = append(got, fmt.Sprintf("recv from %d", m.Src))
				}
			}
			mu.Lock()
			outcomes[r] = strings.Join(got, "; ")
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("chaos kill run: %v", err)
		}
		return outcomes
	}
	s1, s2 := trace.NewSchedule(), trace.NewSchedule()
	ch1, ch2 := DefaultChaos(7), DefaultChaos(7)
	ch1.Record, ch2.Record = s1, s2
	o1 := run(ch1)
	o2 := run(ch2)
	if s1.Hash() != s2.Hash() {
		t.Fatalf("same seed, different schedules: %x vs %x", s1.Hash(), s2.Hash())
	}
	if fmt.Sprint(o1) != fmt.Sprint(o2) {
		t.Fatalf("same seed, different outcomes:\n%v\n%v", o1, o2)
	}
	if s1.CountKind(trace.DecisionKill) == 0 {
		t.Fatal("schedule records no kill decision")
	}
	ch3 := DefaultChaos(7)
	ch3.Replay = s1
	o3 := run(ch3)
	if fmt.Sprint(o1) != fmt.Sprint(o3) {
		t.Fatalf("replay diverged:\n%v\n%v", o1, o3)
	}
}

// TestChaosDeadSourceRace pins the race the chaos scheduler keeps open
// between a message in flight and its sender's death (the plain drivers
// queue the message before the death, so it is always delivered there):
// rank 1 sends tag 5 to rank 0 and dies at its next operation, so rank
// 0's RecvErr(1, 5) may be delivered the message or be told its source
// failed — a seeded decision either way. Over seeds 0–19 both outcomes occur (8
// deliveries, 12 failures), each seed replays its recorded schedule to
// the same outcome, and a failed receive charges exactly one detection.
func TestChaosDeadSourceRace(t *testing.T) {
	const detect = 100e-6 // detectTimeout
	run := func(ch *Chaos) (delivered bool, rep *Report) {
		rep, err := Run(Config{Cluster: failureCluster(), Ranks: 2, Chaos: ch, Kills: []Kill{{Rank: 1, AfterOps: 1}}}, func(p *Proc) {
			if p.Rank() == 1 {
				p.Send(0, 5, 1, []byte{1}, nil)
				p.Barrier() // the second operation: rank 1 dies entering it
				return
			}
			m, rerr := p.RecvErr(1, 5)
			switch {
			case rerr == nil && m.Src == 1 && m.Data[0] == 1:
				delivered = true
			case !isRankFailed(rerr, 1):
				panic(fmt.Sprintf("RecvErr(1, 5) = %+v, %v; want the message or rank 1's failure", m, rerr))
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", ch.Seed, err)
		}
		return delivered, rep
	}
	var outcomes [2]int // failed, delivered
	for seed := int64(0); seed < 20; seed++ {
		rec := trace.NewSchedule()
		ch := ScheduleOnly(seed)
		ch.Record = rec
		delivered, rep := run(ch)
		if delivered {
			outcomes[1]++
			if rep.Detections != 0 || rep.DetectTime != 0 {
				t.Errorf("seed %d: delivered receive charged %d detections (%g s)", seed, rep.Detections, rep.DetectTime)
			}
		} else {
			outcomes[0]++
			if rep.Detections != 1 || rep.DetectTime != detect {
				t.Errorf("seed %d: failed receive charged %d detections (%g s), want one of %g s", seed, rep.Detections, rep.DetectTime, detect)
			}
		}
		replay := ScheduleOnly(seed)
		replay.Replay = rec
		if again, _ := run(replay); again != delivered {
			t.Errorf("seed %d: replay delivered=%v, recorded run delivered=%v", seed, again, delivered)
		}
	}
	if outcomes != [2]int{12, 8} {
		t.Fatalf("seeds 0–19: %d failed, %d delivered; want 12 and 8", outcomes[0], outcomes[1])
	}
}

func isRankFailed(err error, rank int) bool {
	var rf *RankFailedError
	return errors.As(err, &rf) && rf.Rank == rank
}
