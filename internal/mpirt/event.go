package mpirt

import (
	"fmt"
	"iter"
	"math"
)

// This file implements the event engine (Config{Engine: EngineEvent}):
// instead of running every rank as a free-running goroutine
// synchronised by condition variables, a single event loop drives the
// run from a calendar queue (calq.go) of rank resumptions keyed by
// virtual time with a deterministic (vt, rank, seq) tie-break.
//
// Ranks still execute on their own stacks — the rank body is arbitrary
// user code that must be able to block mid-call — but as iter.Pull
// coroutines of the loop: exactly one entity (the loop or one rank) is
// ever running, and control moves by a direct coroutine switch that
// never enters the Go scheduler. A rank runs until it parks (recv with
// nothing matching, barrier, agreement round) or finishes; parking
// yields to the loop, which pops the next event and resumes that rank.
// Coroutines are created lazily, on their first event, so an aborted
// run never pays for ranks that haven't started; a parked rank costs
// only its (small) stack, which with phantom payloads is what lets
// 100k+-rank sweeps fit.
//
// Semantics match the threaded engine: the same mailbox matching, the
// same typed-error surface, the same fail-stop rules, and the same
// wait-for-graph deadlock detector (the engine maintains the mailbox
// waiter fields the detector reads). Two things get strictly better:
// non-chaos runs are deterministic (serial execution means the shared
// cost-model resources are claimed in one canonical order), and
// deadlock detection is exact — an empty queue with unfinished ranks
// IS a deadlock — so there is no sampling watchdog.
//
// Chaos mode does not use this loop at all: the chaos scheduler is
// already a serial token-passing design, so Config{Engine: EngineEvent,
// Chaos: ...} keeps the rank goroutines and hosts the unmodified
// decision loop on the Run goroutine (chaosRT.runLoop), which is what
// makes chaos schedules bit-identical across engines.

// evState is a rank's state as the event loop sees it.
type evState uint8

const (
	// evUnborn: no event has targeted the rank yet; its coroutine does
	// not exist.
	evUnborn evState = iota
	// evRunning: the rank is the running entity.
	evRunning
	// evRecvWait: parked in recvErr; the mailbox waiter fields describe
	// the posted receive.
	evRecvWait
	// evBarrierWait: parked in reduceMax awaiting generation completion.
	evBarrierWait
	// evFTWait: parked in an agreement round (Agree/Shrink).
	evFTWait
	// evYield: parked in Proc.Yield with its own wake already queued.
	evYield
	// evFinished: the rank body returned or the rank died.
	evFinished
)

// evCoro is one rank's coroutine.
type evCoro struct {
	next  func() (struct{}, bool) // the loop resumes the rank
	yield func(struct{}) bool     // the rank hands control back
	stop  func()                  // the loop unwinds the rank if parked
}

// eventRT is the event engine's state. All fields are owned by "the
// running entity": the loop and the rank coroutines hand execution
// around one at a time, and each coroutine switch orders every access.
type eventRT struct {
	rt   *Runtime
	body func(*Proc)

	q       calQueue
	pushSeq uint64
	// now is the virtual time of the last popped event; pushes are
	// clamped to it, which is exactly the monotonicity the calendar
	// queue's contract requires.
	now float64

	state      []evState
	wakeQueued []bool // one pending wake per rank, max
	co         []evCoro
	nFinished  int

	// Report telemetry: events popped, parks taken, deepest queue.
	events, parks, peakQueue int64
}

func newEventRT(rt *Runtime, body func(*Proc)) *eventRT {
	return &eventRT{
		rt:         rt,
		body:       body,
		state:      make([]evState, rt.n),
		wakeQueued: make([]bool, rt.n),
		co:         make([]evCoro, rt.n),
	}
}

// schedule queues a wake for rank r at virtual time vt (clamped to the
// loop's current time). At most one wake per rank is ever pending: a
// parked rank needs only one resumption, after which it re-examines
// its condition, so further wake causes coalesce.
func (ev *eventRT) schedule(r int, vt float64) {
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

// wakeWaiters schedules every rank parked in state st — the barrier /
// agreement completer calls this for the generation it just closed.
func (ev *eventRT) wakeWaiters(st evState, vt float64) {
	for r := 0; r < ev.rt.n; r++ {
		if ev.state[r] == st {
			ev.schedule(r, vt)
		}
	}
}

// wakeDeathObservers schedules every parked receiver that can now
// observe rank dead's failure: a posted receive on dead itself, or an
// AnySource receive once every peer is gone.
func (ev *eventRT) wakeDeathObservers(dead int) {
	rt := ev.rt
	for r := 0; r < rt.n; r++ {
		if ev.state[r] != evRecvWait {
			continue
		}
		b := rt.boxes[r]
		b.mu.Lock()
		wake := b.waiter && (b.wSrc == dead ||
			(b.wSrc == AnySource && rt.firstDeadPeer(r) >= 0))
		wvt := b.wVT
		b.mu.Unlock()
		if wake {
			ev.schedule(r, wvt)
		}
	}
}

// wakeRevoked schedules every parked receiver so it observes the
// revocation instead of waiting on messages that will never arrive.
func (ev *eventRT) wakeRevoked() {
	rt := ev.rt
	for r := 0; r < rt.n; r++ {
		if ev.state[r] != evRecvWait {
			continue
		}
		b := rt.boxes[r]
		b.mu.Lock()
		wvt := b.wVT
		b.mu.Unlock()
		ev.schedule(r, wvt)
	}
}

// park switches to the loop and returns at this rank's next event.
// The caller must have set ev.state[p.rank] to the wait state first.
// A false yield is the loop's stop(): the run failed, the rank unwinds.
func (ev *eventRT) park(p *Proc) {
	ev.parks++
	if !ev.co[p.rank].yield(struct{}{}) { //lint:allocok — THE event-engine park point: iter.Pull's yield is a bare coroutine switch to the loop
		panic(errAborted)
	}
}

// loop is the engine: pop the next event, run that rank until it
// parks or finishes, repeat. An empty queue before every rank has
// finished is a proven deadlock — every possible wake is queued as an
// event, so no event means no rank can ever run again.
//
//lint:hotpath
func (ev *eventRT) loop() {
	rt := ev.rt
	for r := 0; r < rt.n; r++ {
		ev.schedule(r, 0)
	}
	for ev.nFinished < rt.n && !rt.aborted.Load() {
		// The queue only shrinks by pops, so its peak is seen here.
		ev.peakQueue = max(ev.peakQueue, int64(ev.q.len()))
		e, ok := ev.q.pop()
		if !ok {
			ev.failDeadlock()
			break
		}
		ev.events++
		ev.now = e.vt
		r := int(e.rank)
		ev.wakeQueued[r] = false
		switch ev.state[r] {
		case evUnborn:
			ev.spawn(rt.procs[r])
		case evRecvWait, evBarrierWait, evFTWait, evYield:
		default:
			// A wake can race a state change only through an abort;
			// nothing to resume.
			continue
		}
		ev.state[r] = evRunning
		if _, parked := ev.co[r].next(); !parked { //lint:allocok — the loop's wake: iter.Pull's next is a bare coroutine switch into rank r
			ev.state[r] = evFinished
			ev.nFinished++
		}
	}
	// Teardown: stop makes the yield of every rank still parked return false.
	for r := range ev.co {
		if stop := ev.co[r].stop; stop != nil {
			stop() //lint:allocok — abort teardown, once per started rank
		}
	}
}

// spawn creates rank p's coroutine.
//
//lint:allocok — one coroutine per rank, created once on its first event
func (ev *eventRT) spawn(p *Proc) {
	co := &ev.co[p.rank]
	co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		ev.rankMain(p)
	})
}

// rankMain is a rank's coroutine body: the user's rank body under the
// shared exit protocol (rankRecover). A body that leaves by
// runtime.Goexit takes the driver goroutine with it (iter.Pull hands
// the exit on to next's caller), so that has to fail the run first.
func (ev *eventRT) rankMain(p *Proc) {
	rec := any("rank body called runtime.Goexit")
	defer func() {
		if r := recover(); r != nil {
			rec = r
		}
		ev.rt.rankRecover(p, rec)
	}()
	ev.body(p)
	rec = nil
}

// failDeadlock reports the exact deadlock the empty queue proves,
// preferring the canonical wait-for cycle when one is visible so the
// report matches the threaded engine's detectRecvCycle output.
//
//lint:allocok — deadlock reporting, runs once just before abort
func (ev *eventRT) failDeadlock() {
	rt := ev.rt
	live := rt.n - ev.nFinished
	var scratch []WaitEdge
	for r := 0; r < rt.n; r++ {
		if derr := rt.detectRecvCycle(r, &scratch); derr != nil {
			derr.Summary = rt.blockedSummary()
			rt.fail(derr)
			return
		}
	}
	rt.fail(fmt.Errorf("%w: %d live ranks all blocked (%s)",
		ErrDeadlock, live, rt.blockedSummary()))
}

// eventRecvErr is recvErr on the event engine: the same matching,
// error, and deadlock-probe sequence as the threaded path, with
// parking through the event loop instead of a condition variable.
func (p *Proc) eventRecvErr(src, tag int) (Msg, error) {
	rt := p.rt
	ev := rt.ev
	rt.checkAborted()
	if src != AnySource && (src < 0 || src >= rt.n) {
		panic(&UsageError{Rank: p.rank, Op: "recv",
			Msg: fmt.Sprintf("invalid source rank %d", src)})
	}
	box := rt.boxes[p.rank]
	checked := false
	box.mu.Lock()
	for {
		if m := box.takeLocked(src, tag); m != nil {
			box.waiter = false
			box.mu.Unlock()
			p.vt = math.Max(p.vt, m.arrival) + rt.model.RecvOverhead()
			out := *m
			*m = Msg{}
			msgPool.Put(m)
			return out, nil
		}
		if rt.aborted.Load() {
			box.waiter = false
			box.mu.Unlock()
			panic(errAborted)
		}
		if rt.revoked.Load() {
			box.waiter = false
			box.mu.Unlock()
			return Msg{}, &CommRevokedError{} //lint:allocok — typed failure error, failure path only
		}
		if src != AnySource && rt.deadMask[src].Load() {
			box.waiter = false
			box.mu.Unlock()
			p.chargeDetect(src)
			return Msg{}, &RankFailedError{Rank: src} //lint:allocok — typed failure error, failure path only
		}
		if src == AnySource {
			if d := rt.firstDeadPeer(p.rank); d >= 0 {
				box.waiter = false
				box.mu.Unlock()
				p.chargeDetect(d)
				return Msg{}, &RankFailedError{Rank: d} //lint:allocok — typed failure error, failure path only
			}
		}
		if src != AnySource && rt.model.HasLinkFaults() {
			// Same rule as the threaded path: nothing matching queued and
			// the src→self path down means this receive can never
			// complete; fail it now rather than park an event that no
			// delivery will ever wake.
			if err := p.linkRecvBlocked(src); err != nil {
				box.waiter = false
				box.mu.Unlock()
				return Msg{}, err
			}
		}
		box.waiter = true
		box.wSrc, box.wTag = src, tag
		box.wVT = p.vt
		box.mu.Unlock()
		if !checked && src != AnySource {
			// The wait is published; serial execution means nothing can
			// deliver between this probe and the park, so the block-time
			// chase is exact here just as under the chaos scheduler.
			checked = true
			if derr := rt.detectRecvCycle(p.rank, &p.cycleScratch); derr != nil {
				derr.Summary = rt.blockedSummary()
				rt.fail(derr)
			}
		}
		ev.state[p.rank] = evRecvWait
		ev.park(p)
		box.mu.Lock()
		box.waiter = false
	}
}

// eventReduceMax is reduceMax on the event engine: the generation
// completer wakes every barrier waiter with a queued event and keeps
// running (it still "holds" the execution); non-completers park.
func (p *Proc) eventReduceMax(v float64) float64 {
	rt := p.rt
	ev := rt.ev
	rt.checkAborted()
	rt.bmu.Lock()
	rt.reduceVals[p.rank] = v
	rt.bArr[p.rank] = true
	rt.bcnt++
	done := rt.completeBarrierLocked()
	res := rt.reduceRes
	rt.bmu.Unlock()
	if done {
		ev.wakeWaiters(evBarrierWait, res)
	} else {
		ev.state[p.rank] = evBarrierWait
		ev.park(p)
		if rt.aborted.Load() {
			panic(errAborted)
		}
		// reduceRes is stable until every waiter of this generation has
		// resumed and re-entered — the same argument as the threaded
		// engine's generation counter.
		rt.bmu.Lock()
		res = rt.reduceRes
		rt.bmu.Unlock()
	}
	if p.vt < res {
		p.vt = res
	}
	return res
}

// eventFTRound is the agreement round (Agree/Shrink) on the event
// engine, mirroring eventReduceMax's completer-continues protocol.
func (p *Proc) eventFTRound(ok, clear bool) (bool, []int) {
	rt := p.rt
	ev := rt.ev
	rt.checkAborted()
	rt.bmu.Lock()
	rt.ftArr[p.rank] = true
	rt.ftCnt++
	rt.ftOK = rt.ftOK && ok
	rt.ftClear = rt.ftClear || clear
	rt.ftVals[p.rank] = p.vt
	done := rt.completeFTLocked()
	res, maxVT, alive := rt.ftRes, rt.ftMax, rt.ftAlive
	rt.bmu.Unlock()
	if done {
		ev.wakeWaiters(evFTWait, maxVT)
	} else {
		ev.state[p.rank] = evFTWait
		ev.park(p)
		if rt.aborted.Load() {
			panic(errAborted)
		}
		rt.bmu.Lock()
		res, maxVT, alive = rt.ftRes, rt.ftMax, rt.ftAlive
		rt.bmu.Unlock()
	}
	p.finishFTRound(maxVT, len(alive))
	return res, alive
}
