package mpirt

import (
	"errors"
	"fmt"
	"math/rand"

	"nbrallgather/internal/trace"
)

// Chaos configures the deterministic-simulation layer: a seeded
// cooperative scheduler that takes full control of message-matching
// order plus a fault-injection model. With a non-nil Chaos the ranks
// are coroutines of one serial loop, as on the event engine: exactly
// one rank executes at a time, every blocking point switches back to
// the loop, and a single seeded RNG decides which rank runs
// next and which in-flight message satisfies which posted receive —
// including AnySource races, arbitrarily delayed and reordered eager
// sends, and duplicate-then-deduplicate deliveries. Because every
// nondeterministic choice flows through that one RNG in a serial
// execution, a run is a pure function of (program, seed): re-running
// the same seed reproduces the identical schedule, which Record
// captures and Replay can force. Chaos is a driver of its own:
// Config.Engine plays no part in a chaos run.
type Chaos struct {
	// Seed drives every scheduling and fault decision.
	Seed int64

	// DupProb is the probability an eager send is duplicated in
	// flight. Duplicates carry the sender's sequence number; the
	// scheduler deduplicates at delivery, so exactly one copy reaches
	// the receiver and the other exercises the dedup path.
	DupProb float64

	// SpikeProb and Spike inject per-link latency spikes: with
	// probability SpikeProb a message's modelled arrival time is
	// pushed back by Spike seconds.
	SpikeProb float64
	Spike     float64

	// FailProb, MaxRetries and Backoff model transient send failures:
	// each injection attempt fails with probability FailProb, up to
	// MaxRetries consecutive failures, and each failure charges the
	// sender an exponentially growing Backoff before the retry. The
	// send always completes within the retry bound (the failures are
	// transient), so collectives still terminate; the cost shows up in
	// virtual time.
	FailProb   float64
	MaxRetries int
	Backoff    float64

	// SlowProb and SlowFactor mark ranks as slow: each rank is slowed
	// with probability SlowProb, multiplying its local work and
	// injection/matching overheads by SlowFactor.
	SlowProb   float64
	SlowFactor float64

	// Record, when non-nil, captures every scheduling decision.
	Record *trace.Schedule

	// Replay, when non-nil, forces the scheduler to follow a
	// previously recorded decision sequence instead of drawing from
	// the RNG. The run fails with a divergence error if the program's
	// behaviour no longer admits the recorded schedule. Fault and
	// slowdown draws still come from Seed, so replay with the
	// recording's seed for exact virtual-time reproduction.
	Replay *trace.Schedule
}

// DefaultChaos returns an aggressive default fault mix for the given
// seed: duplicated sends, latency spikes, transient send failures with
// bounded retry, and slow ranks, on top of fully adversarial
// scheduling.
func DefaultChaos(seed int64) *Chaos {
	return &Chaos{
		Seed:       seed,
		DupProb:    0.05,
		SpikeProb:  0.05,
		Spike:      50e-6,
		FailProb:   0.03,
		MaxRetries: 4,
		Backoff:    5e-6,
		SlowProb:   0.15,
		SlowFactor: 4,
	}
}

// ScheduleOnly returns a chaos configuration that perturbs only the
// message-matching order (plus duplicates), leaving virtual time
// untouched — useful for differential timing comparisons.
func ScheduleOnly(seed int64) *Chaos {
	return &Chaos{Seed: seed, DupProb: 0.05}
}

// chaosWake is what the scheduler hands a rank it resumes: a delivered
// message, a failure/revocation error, or neither (a plain resume).
type chaosWake struct {
	msg *Msg
	err error
}

// flightMsg is one in-flight copy of an eager send, held by the chaos
// scheduler until a delivery decision releases it.
type flightMsg struct {
	msg     *Msg
	dst     int
	sendSeq uint64 // the sender's per-rank send counter
	dup     bool   // a chaos-injected duplicate copy
}

// delivKey identifies a logical message for deduplication.
type delivKey struct {
	src int
	seq uint64
}

// chaosRT is the chaos driver: the serial drivers' coroutine host, with
// a loop that resumes whichever rank the seeded scheduler decides on.
// Execution is serial, so the state needs no lock: each coroutine
// switch orders every access.
type chaosRT struct {
	coHost
	cfg Chaos

	// schedRNG drives scheduling picks; faultRNG drives fault,
	// duplication, and slowdown draws. They must be independent
	// streams: replay mode consumes no scheduling picks, and the fault
	// sequence has to stay identical to the recorded run's anyway.
	schedRNG *rand.Rand
	faultRNG *rand.Rand
	// wakeErr holds a pending error for a rank flipped runnable by a
	// revocation while it was blocked in a receive; delivered with the
	// rank's next resume.
	wakeErr []error
	// handoff is what the latest decision hands the rank it resumes.
	handoff chaosWake
	// inflight holds the undelivered copies per destination rank, in
	// send order (so for one sender, sendSeq is nondecreasing along a
	// list). Keeping the pool destination-indexed lets every
	// scheduling decision touch only the lists of recv-blocked ranks
	// instead of rescanning a single global slice per candidate.
	inflight  [][]*flightMsg
	inflightN int
	delivered map[delivKey]bool
	sendSeq   []uint64
	slow      []float64 // per-rank time multiplier, ≥ 1
	replayPos int
	// scheduling scratch, reused across decisions to keep the serial
	// scheduler allocation-free: opts is the candidate list, seenSrc
	// marks senders already offering a deliverable copy to the rank
	// under consideration, touched records which marks to clear.
	opts    []chaosOption
	seenSrc []bool
	touched []int
	// flightFree recycles flightMsg containers between deliveries.
	flightFree []*flightMsg
}

// newFlight draws a flightMsg container from the freelist.
func (cs *chaosRT) newFlight(m *Msg, dst int, seq uint64, dup bool) *flightMsg {
	if n := len(cs.flightFree); n > 0 {
		fm := cs.flightFree[n-1]
		cs.flightFree = cs.flightFree[:n-1]
		*fm = flightMsg{msg: m, dst: dst, sendSeq: seq, dup: dup}
		return fm
	}
	return &flightMsg{msg: m, dst: dst, sendSeq: seq, dup: dup}
}

// freeFlight recycles a container once its message has been handed off
// (or its duplicate dropped).
func (cs *chaosRT) freeFlight(fm *flightMsg) {
	fm.msg = nil
	cs.flightFree = append(cs.flightFree, fm)
}

// newChaosRT initialises chaos state for n ranks, all runnable.
// Slow-rank assignment is drawn first so it consumes a fixed prefix of
// the RNG stream.
func newChaosRT(rt *Runtime, cfg Chaos) *chaosRT {
	cs := &chaosRT{
		coHost:    newCoHost(rt),
		cfg:       cfg,
		schedRNG:  rand.New(rand.NewSource(cfg.Seed)),
		faultRNG:  rand.New(rand.NewSource(cfg.Seed ^ 0x6e624eb7)),
		wakeErr:   make([]error, rt.n),
		inflight:  make([][]*flightMsg, rt.n),
		delivered: make(map[delivKey]bool),
		sendSeq:   make([]uint64, rt.n),
		slow:      make([]float64, rt.n),
		seenSrc:   make([]bool, rt.n),
	}
	for r := 0; r < rt.n; r++ {
		cs.state[r] = stRunnable
		cs.slow[r] = 1
		if cfg.SlowProb > 0 && cs.faultRNG.Float64() < cfg.SlowProb {
			f := cfg.SlowFactor
			if f < 1 {
				f = 1
			}
			cs.slow[r] = f
		}
	}
	return cs
}

// run hosts the ranks as coroutines created on their first resume, so
// the seeded scheduler — not spawn order — decides who runs first.
func (cs *chaosRT) run(body func(*Proc)) { cs.host(body, cs.loop) }

// loop resumes the rank each decision names until none does: the run
// completed, deadlocked, or aborted.
func (cs *chaosRT) loop() {
	for r, ok := cs.decide(); ok; r, ok = cs.decide() {
		cs.resume(r)
	}
}

// chaosOption is one candidate scheduling action: resume a runnable
// rank, deliver in-flight message fi to a blocked receiver, or notify
// a blocked receiver that its peer src has failed.
type chaosOption struct {
	kind uint8 // optResume, optDeliver or optFail
	rank int
	fi   int // index into inflight[rank], valid for optDeliver
	src  int // dead peer, valid for optFail
}

const (
	optResume uint8 = iota
	optDeliver
	optFail
)

// decide makes one scheduling decision: the rank to resume, with what
// it is handed in cs.handoff, or ok=false when the run completed,
// deadlocked, or aborted. When every live rank is blocked with nothing
// deliverable, it fails the run with a deadlock error — exact
// detection, no watchdog heuristics needed.
func (cs *chaosRT) decide() (rank int, ok bool) {
	for {
		if cs.rt.aborted.Load() {
			return 0, false
		}
		opts := cs.opts[:0]
		for r, st := range cs.state {
			switch st {
			case stRunnable:
				opts = append(opts, chaosOption{kind: optResume, rank: r})
			case stRecvWait:
				// MPI non-overtaking: of the in-flight messages from one
				// sender that match the posted receive, only the earliest
				// may be delivered. Cross-sender order stays fully
				// adversarial (that is the AnySource race under test).
				// Each destination list keeps send order, so one sender's
				// copies appear in nondecreasing sendSeq order and the
				// earliest deliverable copy per sender is simply the first
				// matching one — the same winner, emitted in the same
				// order, as a quadratic earliest-of-sender scan.
				b := cs.rt.boxes[r]
				deliverable := false
				for i, fm := range cs.inflight[r] {
					if !chaosMatch(b.wSrc, b.wTag, fm.msg) {
						continue
					}
					if cs.seenSrc[fm.msg.Src] {
						continue
					}
					cs.seenSrc[fm.msg.Src] = true
					cs.touched = append(cs.touched, fm.msg.Src)
					deliverable = true
					opts = append(opts, chaosOption{kind: optDeliver, rank: r, fi: i})
				}
				for _, s := range cs.touched {
					cs.seenSrc[s] = false
				}
				cs.touched = cs.touched[:0]
				// Failure notification options. A receive posted to a
				// dead source may be failed even while a matching message
				// is still in flight — the adversarial message-lost-at-
				// crash case; the seeded pick decides. An AnySource
				// receive fails only when every peer is dead and nothing
				// is deliverable.
				if src := b.wSrc; src != AnySource {
					if cs.rt.deadMask[src].Load() {
						opts = append(opts, chaosOption{kind: optFail, rank: r, src: src})
					}
				} else if !deliverable {
					if d := cs.rt.firstDeadPeer(r); d >= 0 {
						opts = append(opts, chaosOption{kind: optFail, rank: r, src: d})
					}
				}
			}
		}
		cs.opts = opts // retain the scratch capacity across decisions
		if len(opts) == 0 {
			if cs.nFinished < cs.rt.n {
				cs.rt.failDeadlock(cs.rt.n - cs.nFinished)
			}
			return 0, false
		}

		var pick chaosOption
		if cs.cfg.Replay != nil {
			if pick, ok = cs.replayPick(opts); !ok {
				return 0, false // replayPick failed the run
			}
		} else {
			pick = opts[cs.schedRNG.Intn(len(opts))]
		}

		if pick.kind == optResume {
			kind := trace.DecisionResume
			var werr error
			if cs.wakeErr[pick.rank] != nil {
				kind = trace.DecisionRevokeNotify
				werr = cs.wakeErr[pick.rank]
				cs.wakeErr[pick.rank] = nil
			}
			cs.record(trace.Decision{Kind: kind, Rank: pick.rank})
			cs.handoff = chaosWake{err: werr}
			return pick.rank, true
		}
		if pick.kind == optFail {
			cs.record(trace.Decision{
				Kind: trace.DecisionFailNotify, Rank: pick.rank, Src: pick.src,
			})
			cs.handoff = chaosWake{err: &RankFailedError{Rank: pick.src}}
			return pick.rank, true
		}
		fm := cs.inflight[pick.rank][pick.fi]
		cs.removeInflight(pick.rank, pick.fi)
		key := delivKey{fm.msg.Src, fm.sendSeq}
		if cs.delivered[key] {
			// A duplicate of an already-delivered message: drop it and
			// decide again. This is the dedup machinery under test.
			cs.record(trace.Decision{
				Kind: trace.DecisionDropDup, Rank: pick.rank,
				Src: fm.msg.Src, Tag: fm.msg.Tag, SendSeq: fm.sendSeq, Size: fm.msg.Size,
			})
			cs.freeFlight(fm)
			continue
		}
		cs.delivered[key] = true
		cs.record(trace.Decision{
			Kind: trace.DecisionDeliver, Rank: pick.rank,
			Src: fm.msg.Src, Tag: fm.msg.Tag, SendSeq: fm.sendSeq, Size: fm.msg.Size,
		})
		cs.handoff = chaosWake{msg: fm.msg}
		cs.freeFlight(fm)
		return pick.rank, true
	}
}

// replayPick resolves the next recorded decision against the
// current options. Drop decisions are consumed inline; a decision the
// current state cannot honour fails the run with a divergence error.
func (cs *chaosRT) replayPick(opts []chaosOption) (chaosOption, bool) {
	var d trace.Decision
	for {
		var ok bool
		d, ok = cs.cfg.Replay.At(cs.replayPos)
		if !ok {
			cs.rt.fail(fmt.Errorf("mpirt: replay diverged: schedule exhausted after %d decisions but the run still needs one", cs.replayPos))
			return chaosOption{}, false
		}
		cs.replayPos++
		// Kills and link-fault observations are recorded inline by the
		// running rank, not chosen by the scheduler; skip them
		// when resolving a scheduling pick.
		if d.Kind != trace.DecisionKill && d.Kind != trace.DecisionLinkFault {
			break
		}
	}
	switch d.Kind {
	case trace.DecisionResume, trace.DecisionRevokeNotify:
		// A revoke notification is a resume whose error payload is
		// determined by program state, so both match a resume option.
		for _, o := range opts {
			if o.kind == optResume && o.rank == d.Rank {
				return o, true
			}
		}
	case trace.DecisionFailNotify:
		for _, o := range opts {
			if o.kind == optFail && o.rank == d.Rank && o.src == d.Src {
				return o, true
			}
		}
	case trace.DecisionDeliver, trace.DecisionDropDup:
		for _, o := range opts {
			if o.kind != optDeliver {
				continue
			}
			fm := cs.inflight[o.rank][o.fi]
			if o.rank == d.Rank && fm.msg.Src == d.Src && fm.sendSeq == d.SendSeq {
				return o, true
			}
		}
	}
	cs.rt.fail(fmt.Errorf("mpirt: replay diverged at decision %d: recorded %s rank %d src %d seq %d is not schedulable",
		cs.replayPos-1, d.Kind, d.Rank, d.Src, d.SendSeq))
	return chaosOption{}, false
}

func (cs *chaosRT) record(d trace.Decision) {
	if cs.cfg.Record != nil {
		cs.cfg.Record.Record(d)
	}
}

func (cs *chaosRT) removeInflight(dst, i int) {
	fl := cs.inflight[dst]
	cs.inflight[dst] = append(fl[:i], fl[i+1:]...)
	cs.inflightN--
}

// chaosMatch mirrors the mailbox (source, tag) matching rules.
func chaosMatch(src, tag int, m *Msg) bool {
	return (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag)
}

// yield parks p runnable: the next decision may resume it or anyone
// else.
func (cs *chaosRT) yield(p *Proc) { cs.switchOut(p, stRunnable) }

// wake flips the waiters of a completed round runnable; the scheduler
// resumes them in seeded order.
func (cs *chaosRT) wake(st waitState, _ float64) {
	for r := range cs.state {
		if cs.state[r] == st {
			cs.state[r] = stRunnable
		}
	}
}

// died records the injected crash in the schedule. The dying rank is
// the one running, so the kill's position in the decision stream is
// deterministic; nobody needs waking — the scheduler offers parked
// receives their fail-notify options from the dead mask.
func (cs *chaosRT) died(r int) {
	cs.record(trace.Decision{Kind: trace.DecisionKill, Rank: r})
}

// wakeRevoked flips every recv-blocked rank runnable with a pending
// revocation error, so it observes the revoke instead of waiting on a
// message that may never come.
func (cs *chaosRT) wakeRevoked() {
	for r, st := range cs.state {
		if st == stRecvWait {
			cs.state[r] = stRunnable
			cs.wakeErr[r] = &CommRevokedError{}
		}
	}
}

// chaosSendFaults draws the transient-failure and latency-spike faults
// for one send. It returns the extra virtual time charged to the
// sender before injection (retry backoffs) and the extra arrival delay
// (latency spike). The draws are part of the deterministic serial
// stream.
//
//lint:allocok — chaos-mode fault sampling, exempt from hot-path discipline
func (cs *chaosRT) chaosSendFaults(scale float64) (backoffTime, spike float64) {
	if cs.cfg.FailProb > 0 {
		backoff := cs.cfg.Backoff
		for try := 0; try < cs.cfg.MaxRetries; try++ {
			if cs.faultRNG.Float64() >= cs.cfg.FailProb {
				break
			}
			backoffTime += backoff * scale
			backoff *= 2
		}
	}
	if cs.cfg.SpikeProb > 0 && cs.faultRNG.Float64() < cs.cfg.SpikeProb {
		spike = cs.cfg.Spike
	}
	return backoffTime, spike
}

// chaosEnqueue places a sent message (and possibly a duplicate) into
// the in-flight pool.
//
//lint:allocok — chaos-mode in-flight pool, exempt from hot-path discipline
func (cs *chaosRT) chaosEnqueue(src, dst int, m *Msg) {
	seq := cs.sendSeq[src]
	cs.sendSeq[src]++
	cs.inflight[dst] = append(cs.inflight[dst], cs.newFlight(m, dst, seq, false))
	cs.inflightN++
	if cs.cfg.DupProb > 0 && cs.faultRNG.Float64() < cs.cfg.DupProb {
		cs.inflight[dst] = append(cs.inflight[dst], cs.newFlight(m, dst, seq, true))
		cs.inflightN++
	}
}

// chaosRecvErr is recvErr under the chaos scheduler: publish the posted
// receive in the mailbox's wait fields, as the plain drivers do, park,
// and take what the scheduler hands over on resume — a message it
// matched to the receive, or a peer failure / revocation. What the
// plain drivers read off the dead mask at post time is here a seeded
// decision (a receive on a dead source may lose the race against a
// message still in flight), so only the revocation and link-down rungs
// of the receive ladder run inline.
//
//lint:allocok — chaos mode is the fault-injection harness; alloc discipline targets the plain drivers
func (p *Proc) chaosRecvErr(src, tag int) (Msg, error) {
	rt := p.rt
	rt.checkAborted()
	cs := rt.chaos
	p.checkSource(src)
	if rt.revoked.Load() {
		return Msg{}, &CommRevokedError{}
	}
	if src != AnySource && rt.model.HasLinkFaults() && !cs.deliverable(p.rank, src, tag) {
		// Same rule as the plain drivers, evaluated at the running
		// rank's deterministic position in the serial stream: nothing
		// matching in flight and the src→self path down means the receive
		// can never complete. In-flight copies stay deliverable — their
		// eager transfer finished before the fault.
		if blk, bad := rt.model.PathBlocked(src, p.rank, p.vt); bad {
			return Msg{}, p.linkBlockedErr(blk, src, p.rank)
		}
	}
	b := rt.boxes[p.rank]
	b.mu.Lock()
	b.waiter, b.wSrc, b.wTag, b.wHint, b.wVT = true, src, tag, hint{slot: -1}, p.vt
	b.mu.Unlock()
	// A wait-for cycle can only close when a rank blocks, so this one
	// check at post time is exact. It sits at a deterministic position
	// in the decision stream: record and replay prove the identical
	// cycle.
	if src != AnySource {
		rt.checkCycle(p)
	}
	cs.switchOut(p, stRecvWait)
	b.mu.Lock()
	b.waiter = false
	b.mu.Unlock()
	w := cs.handoff
	if w.err != nil {
		var rf *RankFailedError
		if errors.As(w.err, &rf) {
			p.chargeDetect(rf.Rank)
		}
		return Msg{}, w.err
	}
	if w.msg == nil {
		// The scheduler resumes a recv-blocked rank only by delivering a
		// message or an error; a bare resume here is a scheduler bug.
		panic(fmt.Sprintf("mpirt: chaos scheduler resumed recv-blocked rank %d without a message", p.rank))
	}
	p.lift(w.msg)
	p.vt += p.slowScale() * rt.model.RecvOverhead()
	return *w.msg, nil
}

// deliverable reports whether an undelivered in-flight copy to rank r
// matches (src, tag); delivered duplicates only ever get dropped.
// Serial execution makes the answer deterministic.
func (cs *chaosRT) deliverable(r, src, tag int) bool {
	for _, fm := range cs.inflight[r] {
		if chaosMatch(src, tag, fm.msg) && !cs.delivered[delivKey{fm.msg.Src, fm.sendSeq}] {
			return true
		}
	}
	return false
}

// slowScale returns the rank's chaos slowdown multiplier (1 outside
// chaos mode or for unaffected ranks).
func (p *Proc) slowScale() float64 {
	if p.rt.chaos == nil {
		return 1
	}
	return p.rt.chaos.slow[p.rank]
}
