package mpirt

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// waitState is a rank's scheduling state as the serial drivers (event,
// chaos) track it; the threaded driver only counts parked ranks.
type waitState uint8

const (
	// stUnborn: the event loop has not reached the rank yet; its
	// coroutine does not exist.
	stUnborn waitState = iota
	// stRunning: the rank is executing.
	stRunning
	// stRunnable: ready to run with nothing to wait for — a chaos rank
	// the scheduler may pick next, an event rank in Yield with its wake
	// queued.
	stRunnable
	// stRecvWait: parked in recvErr on a posted receive.
	stRecvWait
	// stBarrierWait: parked in reduceMax until the generation completes.
	stBarrierWait
	// stFTWait: parked in an agreement round (Agree/Shrink).
	stFTWait
	// stFinished: the rank body returned or the rank died.
	stFinished
)

// driver is the seam between the blocking core — recvErr, reduceMax,
// ftRound, markDead, Revoke, written once — and whatever executes the
// ranks. The core decides *whether* a rank must wait and what a
// completion, death or revocation makes runnable; the driver supplies
// how a rank waits and how waiters are woken. The contract:
//
//   - park may return without the awaited condition holding (a
//     coalesced or spurious wake); callers re-examine their condition,
//     and the abort flag, under the lock they passed.
//   - A wake is delivered no earlier than the call that caused it: the
//     core changes state under the waiter's lock and then calls the
//     wake, so a waiter that re-checks under that lock cannot miss it.
//   - The serial drivers (event, chaos) host ranks as coroutines of one
//     loop, or step them (coHost, Runtime.host): park switches back to
//     the loop, a Step-form wait suspends instead (Proc.suspend), and
//     they unwind a parked rank with errAborted when the run fails; the
//     threaded driver returns from park and lets the caller's re-check
//     do it.
//   - Only the threaded driver locks: the mailboxes, the round state and
//     the cost model are guarded by hostLocks that launch makes no-ops
//     for the serial drivers, where one rank runs at a time.
type driver interface {
	// run executes body on every rank and returns once all ranks have
	// finished, or the run failed and stragglers were abandoned.
	run(body func(*Proc))
	// park blocks p in wait-state st until a wake. c is the condition
	// the wait was published under: c.L is held on entry and on
	// return, and released while parked (a no-op on the serial drivers).
	park(p *Proc, st waitState, c *sync.Cond)
	// yield lets other ranks run without waiting on anything.
	yield(p *Proc)
	// wake makes every rank parked in round state st runnable; vt is
	// the virtual time of the generation that completed.
	wake(st waitState, vt float64)
	// died tells the driver rank r has failed, so parked receives that
	// can now observe the failure get to re-examine it.
	died(r int)
	// wakeRevoked makes every parked receive observe the revocation.
	wakeRevoked()
}

// hostLock guards state the ranks share. Only the threaded driver runs
// ranks concurrently; launch sets serial for the others, and then Lock
// and Unlock do nothing.
type hostLock struct {
	mu     sync.Mutex
	serial bool
}

func (l *hostLock) Lock() {
	if !l.serial {
		l.mu.Lock()
	}
}

func (l *hostLock) Unlock() {
	if !l.serial {
		l.mu.Unlock()
	}
}

// threadedRT is the goroutine-per-rank driver: parks are condition
// waits, wakes are broadcasts, and a sampling watchdog — fed by the
// blocked/progress counters the parks maintain — backstops deadlock
// detection.
type threadedRT struct{ rt *Runtime }

func (t threadedRT) run(body func(*Proc)) {
	done := make(chan struct{})
	defer close(done)
	go t.watchdog(done)
	t.rt.runRanks(body)
}

// park is the threaded engine's park point: the rank's goroutine waits
// on the condition its wait was published under.
func (t threadedRT) park(_ *Proc, _ waitState, c *sync.Cond) {
	t.rt.blocked.Add(1)
	c.Wait()
	t.rt.blocked.Add(-1)
	// A rank leaving the blocked set is what the watchdog counts as
	// progress.
	t.rt.progress.Add(1)
}

func (t threadedRT) yield(*Proc) { runtime.Gosched() }

func (t threadedRT) wake(waitState, float64) { t.rt.bcond.Broadcast() }

func (t threadedRT) died(int) { t.rt.broadcastBoxes() }

func (t threadedRT) wakeRevoked() { t.rt.broadcastBoxes() }

// broadcastBoxes wakes every goroutine parked on a mailbox: none before
// the threaded driver has made the conditions.
func (rt *Runtime) broadcastBoxes() {
	for i := range rt.boxes {
		if b := &rt.boxes[i]; b.cond != nil {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
	}
}

// watchdog aborts the run on a distributed deadlock the wait-for-graph
// detector cannot prove: all live ranks blocked in receives or rounds
// across several samples with no progress.
func (t threadedRT) watchdog(done <-chan struct{}) {
	rt := t.rt
	tick := time.NewTicker(50 * time.Millisecond) //lint:wallclock — host watchdog, outside the model
	defer tick.Stop()
	var lastProgress uint64
	stale := 0
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		live := int64(rt.n) - rt.finished.Load()
		blocked := rt.blocked.Load()
		prog := rt.progress.Load()
		if live > 0 && blocked >= live && prog == lastProgress {
			stale++
			if stale >= 4 {
				// Specific-source receive cycles are proven and reported
				// the instant they form (detectRecvCycle at block time);
				// the watchdog remains the backstop for AnySource waits,
				// barrier/agreement stalls, and mixed shapes.
				rt.failDeadlock(int(live))
				return
			}
		} else {
			stale = 0
		}
		lastProgress = prog
	}
}

// failDeadlock fails the run with the deadlock its caller established
// (the watchdog's stale samples, the event loop's empty queue),
// reporting the canonical wait-for cycle when one is visible.
func (rt *Runtime) failDeadlock(live int) {
	var scratch []WaitEdge
	for r := 0; r < rt.n; r++ {
		if derr := rt.detectRecvCycle(r, &scratch); derr != nil {
			rt.fail(derr)
			return
		}
	}
	rt.fail(fmt.Errorf("%w: %d live ranks all blocked (%s)",
		ErrDeadlock, live, rt.blockedSummary()))
}
