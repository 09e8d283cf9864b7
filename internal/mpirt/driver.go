package mpirt

import (
	"fmt"
	"runtime"
	"sync"

	"nbrallgather/internal/trace"
)

// waitState is a rank's scheduling state as every driver tracks it.
type waitState uint8

const (
	// stUnborn: the event loop has not reached the rank yet; its
	// coroutine does not exist.
	stUnborn waitState = iota
	// stRunning: the rank is executing, or on the threaded driver readied.
	stRunning
	// stRunnable: ready to run with nothing to wait for — a chaos rank
	// the scheduler may pick next, an event rank in Yield with its wake
	// queued.
	stRunnable
	// stRecvWait: parked in recv on a posted receive.
	stRecvWait
	// stBarrierWait: parked in reduceMax until the generation completes.
	stBarrierWait
	// stFTWait: parked in an agreement round (Agree/Shrink).
	stFTWait
	// stFinished: the rank body returned or the rank died.
	stFinished
)

// driver is the seam between the blocking core — recv, reduceMax,
// ftRound, markDead, Revoke, written once — and whatever executes the
// ranks. The core decides *whether* a rank must wait and which ranks a
// completion, death or revocation concerns (Runtime.wake, died,
// wakeRevoked: by their state); the driver supplies how a rank waits
// and how it is made runnable. The contract:
//
//   - The core sees one rank at a time on every driver: the serial
//     drivers run one rank at a time, and on the threaded driver every
//     runtime call holds the one runtime mutex (Runtime.lock), which
//     only a parked rank releases. A call releases it before it panics.
//   - park may return without the awaited condition holding (a
//     coalesced or spurious wake); callers re-examine their condition,
//     and the abort flag.
//   - A readied rank stays runnable until it parks again, so no wake is
//     lost and a second one coalesces.
//   - The serial drivers (event, chaos) host ranks as coroutines of one
//     loop, or step them (coHost, Runtime.host): park switches back to
//     the loop, a Step-form wait suspends instead (Proc.suspend), and
//     they unwind a parked rank with errAborted when the run fails; the
//     threaded driver returns from park and lets the caller's re-check
//     do it.
type driver interface {
	// run executes body on every rank and returns once all ranks have
	// finished, or the run failed and stragglers were abandoned.
	run(body func(*Proc))
	// park blocks p in wait-state st until it is readied.
	park(p *Proc, st waitState)
	// yield lets other ranks run without waiting on anything.
	yield(p *Proc)
	// ready makes parked rank r runnable; vt is the virtual time of
	// what woke it.
	ready(r int, vt float64)
}

// wake readies every rank parked in round state st: the generation
// completed at virtual time vt.
func (rt *Runtime) wake(st waitState, vt float64) {
	for r := range rt.state {
		if rt.state[r] == st {
			rt.drv.ready(r, vt)
		}
	}
}

// died readies every parked receive that can now observe rank dead's
// failure: one posted on dead itself, or on AnySource with every peer
// gone. Under chaos it records the kill instead: the dying rank is the
// one running, so the kill's position in the decision stream is
// deterministic, and the scheduler offers parked receives their
// fail-notify options from the dead mask.
func (rt *Runtime) died(dead int) {
	if cs := rt.chaos; cs != nil {
		cs.record(trace.Decision{Kind: trace.DecisionKill, Rank: dead})
		return
	}
	for r := range rt.state {
		b := &rt.boxes[r]
		if rt.state[r] == stRecvWait && b.waiter && (b.wSrc == dead || b.wSrc == AnySource && rt.firstDeadPeer(r) >= 0) {
			rt.drv.ready(r, b.wVT)
		}
	}
}

// wakeRevoked readies every parked receive, so it observes the
// revocation instead of waiting on a message that may never come; under
// chaos its resume is then a revoke-notify.
func (rt *Runtime) wakeRevoked() {
	for r := range rt.state {
		if rt.state[r] == stRecvWait {
			if cs := rt.chaos; cs != nil {
				cs.note[r] = noteRevoked
			}
			rt.drv.ready(r, rt.boxes[r].wVT)
		}
	}
}

// threadedRT is the goroutine-per-rank driver. Rank bodies run
// concurrently, but each runtime call holds mu from entry to return and
// releases it only while the rank is parked. A parked rank waits on its
// wake channel or on failedCh. runnable counts the live ranks that are
// not parked: when a park or an exit brings it to 0 with a rank still
// live, no rank is left to wake anyone — the deadlock the event loop
// sees as an empty queue.
type threadedRT struct {
	rt       *Runtime
	mu       sync.Mutex
	wakeCh   []chan struct{}
	runnable int
	live     int
}

func newThreadedRT(rt *Runtime) *threadedRT {
	t := &threadedRT{rt: rt, wakeCh: make([]chan struct{}, rt.n), runnable: rt.n, live: rt.n}
	for r := range rt.state {
		rt.state[r] = stRunning
		t.wakeCh[r] = make(chan struct{}, 1)
	}
	return t
}

// run executes body on one goroutine per rank, under the coroutine
// host's exit protocol (coHost.rankMain), and waits for them all.
func (t *threadedRT) run(body func(*Proc)) {
	h := coHost{rt: t.rt, body: body}
	t.rt.goWait(t.rt.n, func(r int) { h.rankMain(t.rt.procs[r]) })
}

// stop takes rank r out of the runnable count, into state st (parked or
// finished), and fails the run if that left no rank to wake the rest.
func (t *threadedRT) stop(r int, st waitState) {
	t.rt.state[r] = st
	t.runnable--
	if t.runnable == 0 && t.live > 0 && !t.rt.aborted.Load() {
		t.rt.failDeadlock(t.live)
	}
}

// park releases the mutex until p is readied, or the run fails (after
// which the count no longer matters).
func (t *threadedRT) park(p *Proc, st waitState) {
	t.stop(p.rank, st)
	t.mu.Unlock()
	select {
	case <-t.wakeCh[p.rank]:
	case <-t.rt.failedCh:
	}
	t.mu.Lock()
}

// ready makes parked rank r runnable; a rank already runnable needs no
// second wake. The send never blocks under the mutex: a token already
// in the channel (left by a park the run's failure ended) wakes r too.
func (t *threadedRT) ready(r int, _ float64) {
	if st := t.rt.state[r]; st == stRunning || st == stFinished {
		return
	}
	t.rt.state[r] = stRunning
	t.runnable++
	select {
	case t.wakeCh[r] <- struct{}{}:
	default:
	}
}

func (t *threadedRT) yield(*Proc) { runtime.Gosched() }

// failDeadlock fails the run with the deadlock its caller established
// (the threaded driver's runnable count, the serial loops' empty
// queue), reporting the canonical wait-for cycle when one is visible.
func (rt *Runtime) failDeadlock(live int) {
	for r := 0; r < rt.n; r++ {
		if derr := rt.detectRecvCycle(r); derr != nil {
			rt.fail(derr)
			return
		}
	}
	rt.fail(fmt.Errorf("%w: %d live ranks all blocked (%s)",
		ErrDeadlock, live, rt.blockedSummary()))
}
