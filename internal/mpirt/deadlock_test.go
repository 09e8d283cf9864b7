package mpirt

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"nbrallgather/internal/trace"
)

// TestDeadlockCycleThreaded pins the threaded wait-for-graph detector:
// a 2-cycle of specific-source receives is proven and reported the
// moment it forms. Rank 2 spins without blocking, so the runnable count
// never reaches 0 — only the cycle chase at block time can produce the
// DeadlockError this test demands.
func TestDeadlockCycleThreaded(t *testing.T) {
	_, err := Run(Config{Cluster: failureCluster(), Ranks: 3, WallLimit: 30 * time.Second, Engine: EngineThreaded}, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Recv(1, 5)
		case 1:
			p.Recv(0, 6)
		case 2:
			for !p.rt.aborted.Load() {
				runtime.Gosched()
			}
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("expected *DeadlockError, got %T: %v", err, err)
	}
	want := []WaitEdge{
		{Rank: 0, Op: "recv", Peer: 1, Tag: 5},
		{Rank: 1, Op: "recv", Peer: 0, Tag: 6},
	}
	if len(derr.Cycle) != len(want) {
		t.Fatalf("cycle %v, want %v", derr.Cycle, want)
	}
	for i := range want {
		if derr.Cycle[i] != want[i] {
			t.Fatalf("cycle %v, want %v", derr.Cycle, want)
		}
	}
	if !strings.Contains(err.Error(), "proven wait-for cycle") {
		t.Fatalf("error %q does not name the proven cycle", err)
	}
	if !strings.Contains(err.Error(), "rank 0 --recv(tag 5)--> rank 1") {
		t.Fatalf("error %q does not render the cycle edges", err)
	}
}

// TestDeadlockExact: every driver proves a deadlock no wait-for cycle
// shows the instant its last runnable rank stops — the serial loops by
// their empty queue, the threaded driver by its runnable count — with
// the same summary. In the first program rank 0 waits on rank 1, which
// finished, so the last rank to stop may exit or park; in the second
// the others wait in a barrier rank 0 never joins, so the last to stop
// always parks. Twenty runs of each take well under 1 s on every
// driver: a detector that sampled for stale progress would need several
// samples per run.
func TestDeadlockExact(t *testing.T) {
	programs := []struct {
		body func(*Proc)
		want string
	}{
		{func(p *Proc) {
			if p.Rank() == 0 {
				p.Recv(1, 99) // rank 1 never sends tag 99
			}
		}, "1 live ranks all blocked (rank 0: recv src=1 tag=99"},
		{func(p *Proc) {
			if p.Rank() == 0 {
				p.Recv(1, 99)
			} else {
				p.Barrier()
			}
		}, "8 live ranks all blocked (rank 0: recv src=1 tag=99; rank 1: barrier;"},
	}
	allDrivers(t, func(t *testing.T, cfg Config) {
		cfg.Cluster, cfg.WallLimit = smallCluster(), 2*time.Second
		start := time.Now()
		for i := 0; i < 20; i++ {
			for _, prog := range programs {
				_, err := Run(cfg, prog.body)
				if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), prog.want) {
					t.Fatalf("run %d: want ErrDeadlock naming %q, got %v", i, prog.want, err)
				}
			}
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("40 deadlocked runs took %v: detection is not exact", d)
		}
	})
}

// cycleBody3 is a 3-rank receive cycle (rank i waits on rank i+1 mod 3)
// among ranks 0..2; the remaining ranks finish immediately.
func cycleBody3(p *Proc) {
	r := p.Rank()
	if r > 2 {
		return
	}
	p.Recv((r+1)%3, 7)
}

// TestChaosDeadlockCycleBitExact pins the chaos-mode detector: every
// seed proves the same canonical 3-cycle at the same virtual time with
// an identical error rendering, and replaying a recorded schedule
// reproduces the identical cycle.
func TestChaosDeadlockCycleBitExact(t *testing.T) {
	want := []WaitEdge{
		{Rank: 0, Op: "recv", Peer: 1, Tag: 7},
		{Rank: 1, Op: "recv", Peer: 2, Tag: 7},
		{Rank: 2, Op: "recv", Peer: 0, Tag: 7},
	}
	extract := func(err error) *DeadlockError {
		t.Helper()
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("expected deadlock, got %v", err)
		}
		var derr *DeadlockError
		if !errors.As(err, &derr) {
			t.Fatalf("expected *DeadlockError, got %T: %v", err, err)
		}
		return derr
	}
	var first *DeadlockError
	var firstMsg string
	var sched *trace.Schedule
	for seed := int64(1); seed <= 5; seed++ {
		rec := trace.NewSchedule()
		c := ScheduleOnly(seed)
		c.Record = rec
		_, err := chaosRun(t, c, cycleBody3)
		derr := extract(err)
		if len(derr.Cycle) != len(want) {
			t.Fatalf("seed %d: cycle %v, want %v", seed, derr.Cycle, want)
		}
		for i := range want {
			if derr.Cycle[i] != want[i] {
				t.Fatalf("seed %d: cycle %v, want %v", seed, derr.Cycle, want)
			}
		}
		if first == nil {
			first, firstMsg, sched = derr, err.Error(), rec
			continue
		}
		if !derr.SameCycle(first) || derr.VT != first.VT {
			t.Fatalf("seed %d: cycle/vt diverge: %v vs %v", seed, derr, first)
		}
		if err.Error() != firstMsg {
			t.Fatalf("seed %d: error rendering diverges:\n%s\nvs\n%s", seed, err, firstMsg)
		}
	}
	// Replay the first recorded schedule: the proof must reproduce.
	c := ScheduleOnly(1)
	c.Replay = sched
	_, err := chaosRun(t, c, cycleBody3)
	if derr := extract(err); !derr.SameCycle(first) {
		t.Fatalf("replay cycle %v differs from recorded %v", derr.Cycle, first.Cycle)
	}
}

// TestChaosDeadlockNotFooledByInflight: a matching message already in
// flight to a member of the would-be cycle means the shape is not
// stuck, and the run must not report a proven cycle.
func TestChaosDeadlockNotFooledByInflight(t *testing.T) {
	_, err := chaosRun(t, ScheduleOnly(3), func(p *Proc) {
		r := p.Rank()
		if r > 2 {
			return
		}
		if r == 0 {
			p.Send(2, 7, 1, []byte{9}, nil) // satisfies rank 2's receive
		}
		p.Recv((r+1)%3, 7)
		if r == 2 {
			// Unblock the chain: 2 received from 0, now feed 1, then 0.
			p.Send(1, 7, 1, []byte{2}, nil)
		}
		if r == 1 {
			p.Send(0, 7, 1, []byte{1}, nil)
		}
	})
	if err != nil {
		t.Fatalf("live shape misreported as deadlock: %v", err)
	}
}

// TestCanonicalCycle pins the canonical rotation and SameCycle.
func TestCanonicalCycle(t *testing.T) {
	rot := canonicalCycle([]WaitEdge{
		{Rank: 2, Op: "recv", Peer: 0, Tag: 7},
		{Rank: 0, Op: "recv", Peer: 1, Tag: 7},
		{Rank: 1, Op: "recv", Peer: 2, Tag: 7},
	})
	if rot[0].Rank != 0 || rot[1].Rank != 1 || rot[2].Rank != 2 {
		t.Fatalf("canonical rotation wrong: %v", rot)
	}
	a := &DeadlockError{Cycle: rot}
	b := &DeadlockError{Cycle: append([]WaitEdge(nil), rot...)}
	if !a.SameCycle(b) {
		t.Fatal("identical cycles reported unequal")
	}
	b.Cycle[2].Tag = 8
	if a.SameCycle(b) {
		t.Fatal("different cycles reported equal")
	}
}
