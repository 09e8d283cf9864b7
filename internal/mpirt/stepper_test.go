package mpirt

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nbrallgather/internal/trace"
)

// Tests that a stepped rank (RunSteppers on a serial driver: no
// coroutine, the event loop or the chaos scheduler calls Step) fails
// exactly the way a coroutine rank does. Each case is written once, as
// a list of stages using the Step-form waits, and run as a coroutine
// body — the reference, where a Step-form wait parks and never reports
// a suspension — and as a Stepper.

// stage is one resumable piece of a rank body: false means a Step-form
// wait suspended, call again.
type stage func(p *Proc) bool

// stages is a Stepper running its stages in order.
type stages struct {
	pc   int
	list []stage
}

func (s *stages) Step(p *Proc) bool {
	for ; s.pc < len(s.list); s.pc++ {
		if !s.list[s.pc](p) {
			return false
		}
	}
	return true
}

func recvStage(src, tag int) stage {
	return func(p *Proc) bool { _, ok := p.RecvStep(src, tag, -1); return ok }
}

func sendStage(dst, tag int) stage {
	return func(p *Proc) bool { p.Send(dst, tag, 0, nil, nil); return true }
}

func barrierStage(p *Proc) bool { _, ok := p.CollectiveTimeStep(); return ok }

// runStages runs prog(rank)'s stages on every rank of cfg, as a
// coroutine body (stepped false) or as Steppers.
func runStages(cfg Config, stepped bool, prog func(rank int) []stage) (*Report, error) {
	if stepped {
		return RunSteppers(cfg, func(p *Proc) Stepper { return &stages{list: prog(p.Rank())} })
	}
	return Run(cfg, func(p *Proc) {
		for _, st := range prog(p.Rank()) {
			if !st(p) {
				panic("a Step-form wait suspended a rank that has a stack")
			}
		}
	})
}

// ringExchange is a hand-written timed exchange on the small cluster —
// SyncResetTimeStep, a byte to the next rank, RecvStep from the previous
// one, CollectiveTimeStep — run stepped or as the coroutine reference,
// and checked against its ground truth: every rank got its predecessor's
// byte and every rank read the same collective time.
func ringExchange(t *testing.T, cfg Config, stepped bool) *Report {
	t.Helper()
	cfg.Cluster, cfg.WallLimit = smallCluster(), 20*time.Second
	const n = 8
	var got [n]int
	var times [n]float64
	rep, err := runStages(cfg, stepped, func(r int) []stage {
		return []stage{
			(*Proc).SyncResetTimeStep,
			func(p *Proc) bool { p.Send((r+1)%n, 7, 1, []byte{byte(r)}, nil); return true },
			func(p *Proc) bool {
				m, ok := p.RecvStep((r+n-1)%n, 7, -1)
				if ok {
					got[r] = int(m.Data[0])
				}
				return ok
			},
			func(p *Proc) (ok bool) { times[r], ok = p.CollectiveTimeStep(); return ok },
		}
	})
	if err != nil {
		t.Fatalf("ring exchange (stepped=%v, engine %q, chaos %v): %v", stepped, cfg.Engine, cfg.Chaos != nil, err)
	}
	for r := range got {
		if got[r] != (r+n-1)%n || times[r] != times[0] || times[r] <= 0 {
			t.Fatalf("ring exchange (stepped=%v): rank %d got %d at %g, rank 0 at %g", stepped, r, got[r], times[r], times[0])
		}
	}
	return rep
}

// sameReport compares two reports of one program, host wall time aside.
func sameReport(a, b *Report) bool {
	x, y := *a, *b
	x.Wall, y.Wall = 0, 0
	return reflect.DeepEqual(x, y)
}

// serialDrivers runs f once per driver whose loop steps a Stepper: on
// the event engine at t's own level, then under chaos (a schedule-only
// seed) in a "chaos" subtest.
func serialDrivers(t *testing.T, f func(t *testing.T, cfg Config)) {
	t.Helper()
	f(t, Config{Engine: EngineEvent})
	t.Run("chaos", func(t *testing.T) { f(t, Config{Chaos: ScheduleOnly(1)}) })
}

// bothBodies runs f on the coroutine reference and on the stepped body.
func bothBodies(t *testing.T, f func(t *testing.T, stepped bool)) {
	t.Helper()
	t.Run("coroutine", func(t *testing.T) { f(t, false) })
	t.Run("stepped", func(t *testing.T) { f(t, true) })
}

// settleGoroutines waits for the goroutine count to return to before.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before the run, %d after", before, n)
	}
}

// stripStack cuts a rank-panic error down to its first line: the stack
// below it names the coroutine or the loop and differs by design.
func stripStack(err error) string {
	s, _, _ := strings.Cut(err.Error(), "\n")
	return s
}

// TestSteppedPanicPropagates: a Step that panics — here after being
// resumed from a suspended receive — fails the run with the rank, the
// value and a stack, and leaves nothing behind.
func TestSteppedPanicPropagates(t *testing.T) {
	serialDrivers(t, func(t *testing.T, cfg Config) {
		cfg.Cluster = smallCluster()
		first := map[bool]string{}
		bothBodies(t, func(t *testing.T, stepped bool) {
			before := runtime.NumGoroutine()
			_, err := runStages(cfg, stepped, func(r int) []stage {
				switch r {
				case 2:
					return []stage{recvStage(3, 1), func(*Proc) bool { panic("boom") }}
				case 3:
					return []stage{sendStage(2, 1), barrierStage}
				}
				return []stage{barrierStage}
			})
			if err == nil || !strings.HasPrefix(err.Error(), "mpirt: rank 2 panicked: boom\n") || !strings.Contains(err.Error(), "goroutine ") {
				t.Fatalf("want rank 2's panic with a stack, got %v", err)
			}
			settleGoroutines(t, before)
			first[stepped] = stripStack(err)
		})
		if first[false] != first[true] {
			t.Fatalf("error differs: coroutine %q, stepped %q", first[false], first[true])
		}
	})
}

// TestSteppedGoexitFailsRun: TestEventGoexitFailsRun's program. The
// Goexit takes the loop's goroutine with it on either path; the run
// must fail with the same error and the ranks left in the barrier must
// not outlive it.
func TestSteppedGoexitFailsRun(t *testing.T) {
	first := map[bool]string{}
	bothBodies(t, func(t *testing.T, stepped bool) {
		before := runtime.NumGoroutine()
		_, err := runStages(Config{Cluster: smallCluster(), Engine: EngineEvent}, stepped, func(r int) []stage {
			switch r {
			case 2:
				return []stage{recvStage(3, 1), func(*Proc) bool { runtime.Goexit(); return true }}
			case 3:
				return []stage{sendStage(2, 1), barrierStage}
			}
			return []stage{barrierStage}
		})
		if err == nil || !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "rank body called runtime.Goexit") {
			t.Fatalf("expected rank 2's Goexit to fail the run, got %v", err)
		}
		settleGoroutines(t, before)
		first[stepped] = stripStack(err)
	})
	if first[false] != first[true] {
		t.Fatalf("error differs: coroutine %q, stepped %q", first[false], first[true])
	}
}

// TestSteppedWallLimit: the last rank hogs the host while every other
// rank sits suspended in a barrier; Run must come back with the
// wall-limit error inside the grace period, and once the hog lets go
// the loop's goroutine must end.
func TestSteppedWallLimit(t *testing.T) {
	bothBodies(t, func(t *testing.T, stepped bool) {
		before := runtime.NumGoroutine()
		start := time.Now()
		_, err := runStages(Config{Cluster: smallCluster(), WallLimit: 200 * time.Millisecond, Engine: EngineEvent}, stepped, func(r int) []stage {
			if r == 7 {
				return []stage{func(*Proc) bool { time.Sleep(time.Second); return true }, barrierStage}
			}
			return []stage{barrierStage}
		})
		if err == nil || !strings.Contains(err.Error(), "wall-clock limit") {
			t.Fatalf("expected the wall-limit error, got %v", err)
		}
		if d := time.Since(start); d > 700*time.Millisecond { // the limit, the 200 ms grace, and slack
			t.Fatalf("Run took %v: not abandoned within the grace period", d)
		}
		settleGoroutines(t, before)
	})
}

// TestSteppedReceiverWokenByFailure: died() and wakeRevoked() — and the
// chaos scheduler's fail-notify options — find a receiver by its
// published wait (state stRecvWait, box.waiter), which a suspended rank
// leaves set exactly as a parked one does. Rank 1 is suspended on rank 0
// when rank 0 dies (its third operation) or revokes the communicator;
// the typed error must reach rank 1 and fail the run identically on
// both paths, on both serial drivers.
func TestSteppedReceiverWokenByFailure(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kills []Kill
		last  stage // rank 0's last stage, reached with rank 1 suspended
		check func(error) bool
	}{
		{"died", []Kill{{Rank: 0, AfterOps: 2}}, sendStage(2, 9), func(err error) bool { return isRankFailed(err, 0) }},
		{"revoked", nil, func(p *Proc) bool { p.Revoke(); return true }, func(err error) bool {
			var cr *CommRevokedError
			return errors.As(err, &cr)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialDrivers(t, func(t *testing.T, cfg Config) {
				cfg.Cluster, cfg.Ranks, cfg.Kills = failureCluster(), 3, tc.kills
				first := map[bool]string{}
				bothBodies(t, func(t *testing.T, stepped bool) {
					_, err := runStages(cfg, stepped, func(r int) []stage {
						switch r {
						case 0:
							return []stage{sendStage(2, 1), recvStage(2, 2), tc.last}
						case 1:
							return []stage{recvStage(0, 5)}
						}
						return []stage{recvStage(0, 1), sendStage(0, 2)}
					})
					if !tc.check(err) || !strings.Contains(err.Error(), "rank 1 aborted") {
						t.Fatalf("want rank 1 aborted by the typed failure, got %v", err)
					}
					first[stepped] = err.Error()
				})
				if first[false] != first[true] {
					t.Fatalf("error differs: coroutine %q, stepped %q", first[false], first[true])
				}
			})
		})
	}
}

// TestSteppedBlockingCallIsUsageError: a stepped rank has no stack to
// park on, so a blocking wait that has to park is reported, not hung —
// by the first rank to reach the barrier: rank 0 on the event engine,
// the first rank the schedule resumes under chaos.
func TestSteppedBlockingCallIsUsageError(t *testing.T) {
	serialDrivers(t, func(t *testing.T, cfg Config) {
		cfg.Cluster, cfg.Ranks = smallCluster(), 2
		rec := trace.NewSchedule()
		if cfg.Chaos != nil {
			cfg.Chaos.Record = rec
		}
		_, err := runStages(cfg, true, func(r int) []stage {
			return []stage{func(p *Proc) bool { p.Barrier(); return true }}
		})
		want := 0
		if d, ok := rec.At(0); ok {
			want = d.Rank
		}
		var ue *UsageError
		if !errors.As(err, &ue) || ue.Rank != want {
			t.Fatalf("want rank %d's usage error, got %v", want, err)
		}
	})
}
