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
// moment it forms. Rank 2 spins without blocking, so the watchdog's
// all-blocked condition never holds — only the instant detector can
// produce the DeadlockError this test demands.
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
