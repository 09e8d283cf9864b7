package mpirt

import (
	"iter"
	"math"
)

// This file implements the event driver (Config{Engine: EngineEvent},
// the default): instead of running every rank as a free-running
// goroutine under the runtime mutex, a single event loop drives the run
// from a calendar queue (calq.go) of rank resumptions keyed by virtual
// time with a deterministic (vt, rank, seq) tie-break.
//
// Exactly one entity (the loop or one rank) is ever running, and the
// loop resumes a rank in one of two ways, fixed for the run by what the
// caller passed. Run(body): the body is arbitrary Go that must be able
// to block mid-call, so each rank is an iter.Pull coroutine of the loop,
// created lazily on its first event; parking is a direct coroutine
// switch that never enters the Go scheduler, the loop's wake is next().
// RunSteppers(mk): the rank is a Stepper whose suspended state is a few
// words (for a plan pass: trial, op index, wait index), so it has no
// stack. The loop calls Step; a wait point of the blocking core that
// would park publishes the wait and returns "not yet" (Proc.suspend),
// and the rank's next event calls Step again, which re-enters the same
// wait point past its park.
//
// The two are interchangeable because they differ only in how control
// gets back to the loop: the wait is published (box.waiter/wSrc/wTag/
// wVT, the cycle chase, state[r], parks) at the same point of the same
// code, and every ready() call — all that orders events — is made by
// that shared code in the same order. Virtual times, every Report field
// and replay hashes are == by construction (TestSteppedEqualsCoroutine).
//
// Serial execution is what the driver adds to the shared blocking
// core: the cost-model resources are claimed in one canonical order, so
// runs are deterministic, and an empty queue with unfinished ranks IS
// a deadlock — the verdict the threaded driver's runnable count gives.
//
// The host half — coHost: spawn, resume, park, teardown, the driver
// goroutine, and the Steppers it steps — is shared with the chaos driver
// (chaos.go), whose loop resumes the rank a seeded decision names
// instead of the next event's, either way.

// coHost hosts ranks as coroutines of one driver goroutine — the
// substrate both serial drivers embed: the event loop resumes ranks in
// virtual-time order, the chaos scheduler in a seeded one. Exactly one
// entity (the driver's loop or one rank) runs at a time, and each
// coroutine switch orders every access to the host's and the driver's
// state.
type coHost struct {
	rt   *Runtime
	body func(*Proc)
	// steps, when non-nil, are the ranks: resume calls steps[r].Step
	// where it would otherwise switch into rank r's coroutine.
	steps []Stepper

	co        []evCoro
	nFinished int
	parks     int64 // Report.Parks
}

// evCoro is one rank's coroutine.
type evCoro struct {
	next  func() (struct{}, bool) // the loop resumes the rank
	yield func(struct{}) bool     // the rank hands control back
	stop  func()                  // the loop unwinds the rank if parked
}

func newCoHost(rt *Runtime) coHost {
	return coHost{rt: rt, co: make([]evCoro, rt.n)}
}

// eventRT is the event engine's state, owned like coHost's.
type eventRT struct {
	coHost

	q       calQueue
	pushSeq uint64
	// now is the virtual time of the last popped event, or 0 after a
	// rewind; pushes are clamped to it, which is exactly the
	// monotonicity the calendar queue's contract requires.
	now float64

	wakeQueued []bool // one pending wake per rank, max

	// Report telemetry: events popped, deepest queue.
	events, peakQueue int64
}

func newEventRT(rt *Runtime) *eventRT {
	return &eventRT{coHost: newCoHost(rt), wakeQueued: make([]bool, rt.n)}
}

// ready queues a wake for rank r at virtual time vt (clamped to the
// loop's current time). At most one wake per rank is ever pending: a
// parked rank needs only one resumption, after which it re-examines
// its condition, so further wake causes coalesce.
func (ev *eventRT) ready(r int, vt float64) {
	if ev.wakeQueued[r] {
		return
	}
	ev.wakeQueued[r] = true
	if vt < ev.now {
		vt = ev.now
	}
	ev.pushSeq++
	ev.q.push(calEvent{vt: vt, rank: int32(r), seq: ev.pushSeq})
}

// requeue queues rank r's wake at virtual time vt if a queued wake pops
// ahead of it, and reports whether it did: then the caller parks.
func (ev *eventRT) requeue(r int, vt float64) bool {
	vt = max(vt, ev.now)
	e, ok := ev.q.peek()
	if !ok || !calLess(e, calEvent{vt: vt, rank: int32(r), seq: ev.pushSeq + 1}) {
		return false
	}
	ev.ready(r, vt)
	return true
}

// park switches to the loop and returns at this rank's next resume. A
// false yield is the loop's stop(): the run failed, the rank unwinds.
func (h *coHost) park(p *Proc, st waitState) {
	if h.steps != nil {
		panic(&UsageError{Rank: p.rank, Op: "park", Msg: "blocking call in a stepped rank: it has no stack to park on, use the Step form"})
	}
	h.rt.state[p.rank] = st
	h.parks++
	if !h.co[p.rank].yield(struct{}{}) { // the serial drivers' park point: iter.Pull's yield is a bare coroutine switch to the loop
		panic(errAborted)
	}
}

// yield parks p with its own wake already queued, keyed one ulp after
// the loop's current instant: the (vt, rank, seq) order would otherwise
// sort a low rank's re-wake ahead of same-vt events already queued for
// higher ranks, and a Yield poll loop would starve them forever.
func (ev *eventRT) yield(p *Proc) {
	ev.ready(p.rank, math.Nextafter(ev.now, math.Inf(1)))
	ev.park(p, stRunnable)
}

func (ev *eventRT) run(body func(*Proc)) { ev.host(body, ev.loop) }

// host runs loop on a driver goroutine of its own: a rank body hogging
// the host holds the loop inside its coroutine switch, and goWait can
// still abandon both at WallLimit. The teardown is deferred, so that it
// also runs when a rank body's runtime.Goexit ends the driver goroutine
// from inside next.
func (h *coHost) host(body func(*Proc), loop func()) {
	h.body = body
	h.rt.goWait(1, func(int) {
		defer h.teardown()
		loop()
	})
}

// loop is the engine: pop the next event, run that rank until it
// parks or finishes, repeat. An empty queue before every rank has
// finished is a proven deadlock — every possible wake is queued as an
// event, so no event means no rank can ever run again.
func (ev *eventRT) loop() {
	rt := ev.rt
	for r := 0; r < rt.n; r++ {
		ev.ready(r, 0)
	}
	for ev.nFinished < rt.n && !rt.aborted.Load() {
		// The queue only shrinks by pops, so its peak is seen here.
		ev.peakQueue = max(ev.peakQueue, int64(ev.q.len()))
		e, ok := ev.q.pop()
		if !ok {
			rt.failDeadlock(rt.n - ev.nFinished)
			break
		}
		ev.events++
		ev.now = e.vt
		r := int(e.rank)
		ev.wakeQueued[r] = false
		switch rt.state[r] {
		case stUnborn, stRecvWait, stBarrierWait, stFTWait, stRunnable:
			ev.resume(r)
		default:
			// A wake can race a state change only through an abort;
			// nothing to resume.
		}
	}
}

// resume runs rank r until it parks or finishes, creating its coroutine
// on its first resume.
func (h *coHost) resume(r int) {
	p := h.rt.procs[r]
	h.rt.state[r] = stRunning
	var parked bool
	if h.steps != nil {
		parked = !h.rankMain(p)
	} else {
		if h.co[r].next == nil {
			h.spawn(p)
		}
		_, parked = h.co[r].next() // the loop's wake: iter.Pull's next is a bare coroutine switch into rank r
	}
	if !parked {
		h.rt.state[r] = stFinished
		h.nFinished++
	}
}

// teardown unwinds every rank still parked: stop makes its yield return
// false. A suspended stepped rank has nothing to unwind.
func (h *coHost) teardown() {
	for r := range h.co {
		if stop := h.co[r].stop; stop != nil {
			stop()
		}
	}
}

// spawn creates rank p's coroutine, once, on its first resume.
func (h *coHost) spawn(p *Proc) {
	co := &h.co[p.rank]
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		h.rankMain(p)
	})
}

// rankMain is one turn of rank p under the shared exit protocol
// (rankRecover): the whole body of a coroutine rank, one Step of a
// stepped one — done is false only when that suspended. A rank that
// leaves by runtime.Goexit takes the driver goroutine with it (iter.Pull
// hands the exit on to next's caller), so that has to fail the run
// first; host's deferred teardown then unwinds the ranks it leaves
// parked.
func (h *coHost) rankMain(p *Proc) (done bool) {
	rec := any("rank body called runtime.Goexit")
	defer func() {
		if r := recover(); r != nil {
			rec = r
		}
		if done = done || rec != nil; done {
			h.rt.rankRecover(p, rec)
		}
	}()
	// The rank's own code is vetted from roots of its own (RecvStep,
	// reduceMax, SendSnapshot), not through these two dynamic calls.
	if h.steps == nil {
		h.body(p)
		done = true
	} else {
		done = h.steps[p.rank].Step(p) // the loop's wake of a stepped rank, as next() is a coroutine's
	}
	rec = nil
	return done
}
