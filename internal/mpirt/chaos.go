package mpirt

import (
	"fmt"
	"math/rand"

	"nbrallgather/internal/trace"
)

// Chaos configures the deterministic-simulation layer: a seeded
// cooperative scheduler that takes full control of message-matching
// order plus a fault-injection model. With a non-nil Chaos the ranks
// are coroutines (RunSteppers: Steppers) of one serial loop, as on the
// event engine: exactly one rank executes at a time, every blocking
// point returns to the loop, and a single seeded RNG decides which rank runs
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
// Ranks receive through the one receive (Proc.recv): a delivery decision
// files its copy into the receiver's mailbox, and a notify decision
// leaves a note the receiver's ladder reads (recvBlocked). Execution is
// serial, so the state needs no lock: each coroutine switch orders
// every access.
type chaosRT struct {
	coHost
	cfg Chaos

	// schedRNG drives scheduling picks; faultRNG drives fault,
	// duplication, and slowdown draws. They must be independent
	// streams: replay mode consumes no scheduling picks, and the fault
	// sequence has to stay identical to the recorded run's anyway.
	schedRNG *rand.Rand
	faultRNG *rand.Rand
	// note is what a notify decision leaves the rank it resumes, 0 for
	// nothing: 1 + the dead peer of a fail-notify, which its receive
	// then fails with, or noteRevoked for a receiver a revocation
	// flipped runnable, whose resume is then a revoke-notify.
	note []int
	// inflight holds the undelivered copies per destination rank, in
	// send order (so for one sender, sendSeq is nondecreasing along a
	// list). Keeping the pool destination-indexed lets every
	// scheduling decision touch only the lists of recv-blocked ranks
	// instead of rescanning a single global slice per candidate.
	inflight  [][]*flightMsg
	inflightN int
	delivered map[delivKey]bool
	sendSeq   []uint64
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

const noteRevoked = -1

// newChaosRT initialises chaos state for n ranks, all runnable, and
// sets each slow rank's Proc.slow. Slow-rank assignment is drawn first
// so it consumes a fixed prefix of the RNG stream.
func newChaosRT(rt *Runtime, cfg Chaos) *chaosRT {
	cs := &chaosRT{
		coHost:    newCoHost(rt),
		cfg:       cfg,
		schedRNG:  rand.New(rand.NewSource(cfg.Seed)),
		faultRNG:  rand.New(rand.NewSource(cfg.Seed ^ 0x6e624eb7)),
		note:      make([]int, rt.n),
		inflight:  make([][]*flightMsg, rt.n),
		delivered: make(map[delivKey]bool),
		sendSeq:   make([]uint64, rt.n),
		seenSrc:   make([]bool, rt.n),
	}
	for r, p := range rt.procs {
		rt.state[r] = stRunnable
		if cfg.SlowProb > 0 && cs.faultRNG.Float64() < cfg.SlowProb {
			p.slow = max(cfg.SlowFactor, 1)
		}
	}
	return cs
}

// run hosts the ranks as coroutines created on their first resume, or
// steps them, so the seeded scheduler — not spawn order — decides who
// runs first.
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

// decide makes one scheduling decision: the rank to resume — with the
// message it delivers filed in the rank's mailbox, or the note it
// leaves — or ok=false when the run completed, deadlocked, or aborted.
// When every live rank is blocked with nothing deliverable, it fails
// the run with a deadlock error: detection is exact.
func (cs *chaosRT) decide() (rank int, ok bool) {
	for {
		if cs.rt.aborted.Load() {
			return 0, false
		}
		opts := cs.opts[:0]
		for r, st := range cs.rt.state {
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
				b := &cs.rt.boxes[r]
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
			if cs.note[pick.rank] == noteRevoked {
				kind = trace.DecisionRevokeNotify
				cs.note[pick.rank] = 0
			}
			cs.record(trace.Decision{Kind: kind, Rank: pick.rank})
			return pick.rank, true
		}
		if pick.kind == optFail {
			cs.record(trace.Decision{
				Kind: trace.DecisionFailNotify, Rank: pick.rank, Src: pick.src,
			})
			cs.note[pick.rank] = 1 + pick.src
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
		cs.rt.boxes[pick.rank].fileLocked(fm.msg, hint{slot: -1})
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
func (cs *chaosRT) yield(p *Proc) { cs.park(p, stRunnable) }

// ready flips rank r runnable; the scheduler resumes it in seeded
// order.
func (cs *chaosRT) ready(r int, _ float64) { cs.rt.state[r] = stRunnable }

// chaosSendFaults draws the transient-failure and latency-spike faults
// for one send. It returns the extra virtual time charged to the
// sender before injection (retry backoffs) and the extra arrival delay
// (latency spike). The draws are part of the deterministic serial
// stream.
func (cs *chaosRT) chaosSendFaults(scale float64) (backoffTime, spike float64) {
	if cs.cfg.FailProb > 0 {
		backoff := cs.cfg.Backoff
		for try := 0; try < cs.cfg.MaxRetries; try++ {
			if cs.faultRNG.Float64() >= cs.cfg.FailProb {
				break
			}
			backoffTime += float64(backoff * scale)
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

// recvBlocked is the receive ladder's chaos rung: the dead peer a
// fail-notify decision left, charged as a detection; else, on a
// specific source, the src→self path down — but only while nothing
// matching is in flight, since in-flight copies stay deliverable (their
// eager transfer finished before the fault). The dead-mask rungs do not
// run: a receive on a dead source may still lose the race against a
// message in flight, and the seeded pick decides.
func (cs *chaosRT) recvBlocked(p *Proc, src, tag int) error {
	if d := cs.note[p.rank] - 1; d >= 0 {
		cs.note[p.rank] = 0
		p.chargeDetect(d)
		return &RankFailedError{Rank: d}
	}
	if src != AnySource && cs.rt.model.HasLinkFaults() && !cs.deliverable(p.rank, src, tag) {
		return p.linkRecvBlocked(src)
	}
	return nil
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
