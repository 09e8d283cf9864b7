// Fail-stop failure model, modeled on MPI ULFM (User-Level Failure
// Mitigation): seeded crash injection, failure detection charged to
// virtual time, an error-propagating P2P surface, and the
// revoke / agree / shrink recovery primitives collectives build on.
//
// A killed rank dies permanently at a chosen point of its execution
// (an operation count and/or a virtual time, so crashes land
// mid-collective deterministically). Peers observe the death the way
// MPI ULFM prescribes: an operation that can no longer complete
// because its peer is dead raises ERR_PROC_FAILED — here a typed
// *RankFailedError — instead of hanging. The first detection per
// (observer, dead peer) pair charges detectTimeout to the
// observer's virtual clock: the modelled cost of the heartbeat/ack
// timeout that a real detector would burn, kept in virtual time so
// fail-stop runs remain deterministic and wall-clock free.
package mpirt

import (
	"fmt"
	"math"
)

// detectTimeout is the virtual-time cost one rank pays the first time
// it detects a given peer's death (the modelled heartbeat/ack timeout).
// Link-fault detections (first observation of a down resource) charge
// the same timeout.
const detectTimeout = 100e-6

// errKilled unwinds a rank that suffered an injected
// fail-stop crash. It is not an error of the run: Run treats it as a
// normal (if permanent) rank exit.
var errKilled = fmt.Errorf("mpirt: rank killed (fail-stop injection)")

// RankFailedError reports that a peer rank has failed fail-stop. It is
// the analogue of MPI_ERR_PROC_FAILED.
type RankFailedError struct {
	// Rank is the dead peer.
	Rank int
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpirt: rank %d failed (fail-stop)", e.Rank)
}

// CommRevokedError reports that the communicator has been revoked by
// some rank (the analogue of MPI_ERR_REVOKED): all pending and future
// point-to-point operations fail until a Shrink installs a clean
// epoch.
type CommRevokedError struct{}

func (e *CommRevokedError) Error() string {
	return "mpirt: communicator revoked"
}

// UsageError reports a programmer error in an mpirt call (invalid
// rank, negative size, size/len mismatch). Unlike injected failures it
// always aborts the run: recovery layers must not swallow it.
type UsageError struct {
	// Rank is the offending caller.
	Rank int
	// Op names the operation ("send", "recv", "sub").
	Op string
	// Msg describes the violation.
	Msg string
}

func (e *UsageError) Error() string {
	return fmt.Sprintf("mpirt: rank %d %s usage error: %s", e.Rank, e.Op, e.Msg)
}

// Kill schedules one injected fail-stop crash.
type Kill struct {
	// Rank is the victim.
	Rank int
	// AfterOps delays the crash until the rank has entered more than
	// AfterOps blocking operations (sends, receives, probes, barriers).
	// 0 kills at the first operation — before any negotiation traffic.
	AfterOps int
	// VT additionally delays the crash until the rank's virtual clock
	// has reached VT seconds. Both conditions must hold.
	VT float64
}

// enterOp counts one blocking operation entry and fires any pending
// kill whose trigger point has been reached. It runs at the top of
// every P2P/collective primitive, before anything driver-specific, so
// kill points are the same on every driver.
func (p *Proc) enterOp() {
	p.ops++
	if p.dead || len(p.kills) == 0 {
		return
	}
	for _, k := range p.kills {
		if p.ops > int64(k.AfterOps) && p.vt >= k.VT {
			p.die()
		}
	}
}

// die marks the rank dead and unwinds it, the lock released first. The
// runtime-level death mark wakes peers blocked on this rank so they
// observe the failure.
func (p *Proc) die() {
	p.dead = true
	p.rt.markDead(p.rank)
	panic(errKilled)
}

// markDead records rank r's permanent failure and re-evaluates every
// synchronisation the death may complete: barrier / agreement rounds
// now covered by arrivals ∪ dead, and parked receives that can now
// observe the failure. The dying rank is still the one executing, so
// on the serial drivers the wakes only queue work for after it unwinds.
func (rt *Runtime) markDead(r int) {
	rt.lock()
	defer rt.unlock()
	if rt.deadMask[r].Swap(true) {
		return
	}
	rt.nDead++
	if rt.completeBarrierLocked() {
		rt.wake(stBarrierWait, rt.reduceRes)
	}
	if rt.completeFTLocked() {
		rt.wake(stFTWait, rt.ftMax)
	}
	rt.died(r)
}

// chargeDetect charges the one-time failure-detection timeout for dead
// to this rank's virtual clock. Detection is memoised per (observer,
// dead) pair: a real detector pays the heartbeat timeout once, then
// knows.
func (p *Proc) chargeDetect(dead int) {
	if p.detected == nil {
		p.detected = make(map[int]bool)
	}
	if p.detected[dead] {
		return
	}
	p.detected[dead] = true
	p.vt += float64(detectTimeout * p.slow)
	p.detectTime += detectTimeout
	p.detections++
}

// Failed reports whether rank r is known to have failed.
func (p *Proc) Failed(r int) bool {
	return r >= 0 && r < p.rt.n && p.rt.deadMask[r].Load()
}

// firstDeadPeer returns the lowest dead rank if every rank other than
// self has failed (the condition under which an AnySource receive can
// never complete), else -1.
func (rt *Runtime) firstDeadPeer(self int) int {
	first := -1
	for r := 0; r < rt.n; r++ {
		if r == self {
			continue
		}
		if !rt.deadMask[r].Load() {
			return -1
		}
		if first < 0 {
			first = r
		}
	}
	return first
}

// Revoke marks the communicator revoked, ULFM-style: every pending and
// future point-to-point operation on it fails with *CommRevokedError
// until a Shrink completes. Any rank may revoke after observing a
// failure; revocation is idempotent. Blocked receivers are woken so
// they observe the revocation instead of waiting on messages that will
// never arrive.
func (p *Proc) Revoke() {
	p.rt.lock()
	if !p.rt.revoked.Swap(true) {
		p.rt.wakeRevoked()
	}
	p.rt.unlock()
}

// Agree is fault-tolerant agreement (ULFM MPI_Comm_agree): a logical
// AND over every live rank's ok flag. Dead ranks are excluded; a rank
// that dies before contributing does not block the round. All
// survivors return the same value. The round synchronises survivor
// clocks and charges a log-cost agreement round to virtual time.
func (p *Proc) Agree(ok bool) bool {
	res, _ := p.ftRound(ok, false)
	return res
}

// Shrink is ULFM MPI_Comm_shrink: a fault-tolerant round that returns
// a dense survivor communicator with a rank translation table. It also
// clears a pending revocation — the returned epoch is clean. Every
// survivor returns an identical translation (built from the same
// agreed survivor snapshot).
func (p *Proc) Shrink() *Comm {
	_, alive := p.ftRound(true, true)
	return newComm(alive, p.rt.n)
}

// ftRound is the shared fault-tolerant agreement round under Agree and
// Shrink. It completes when every rank has either contributed or died,
// and returns the AND of contributed ok flags plus the agreed survivor
// snapshot (ascending original ranks). clear resets the revoked flag
// at completion. The caller must not mutate the returned slice.
func (p *Proc) ftRound(ok, clear bool) (bool, []int) {
	p.enterOp()
	rt := p.rt
	rt.checkAborted()
	rt.lock()
	rt.ftArr[p.rank] = true
	rt.ftCnt++
	rt.ftOK = rt.ftOK && ok
	rt.ftClear = rt.ftClear || clear
	rt.ftVals[p.rank] = p.vt
	gen := rt.ftGen
	if rt.completeFTLocked() {
		rt.wake(stFTWait, rt.ftMax)
	}
	p.awaitRound(stFTWait, &rt.ftGen, gen, false)
	res, maxVT, alive := rt.ftRes, rt.ftMax, rt.ftAlive
	rt.unlock()
	p.finishFTRound(maxVT, len(alive))
	return res, alive
}

// finishFTRound synchronises the clock to the round maximum and
// charges the modelled agreement cost: ~2·log2(survivors) message
// latencies, the cost of a binomial-tree reduce+broadcast.
func (p *Proc) finishFTRound(maxVT float64, survivors int) {
	if p.vt < maxVT {
		p.vt = maxVT
	}
	hops := 1.0
	if survivors > 2 {
		hops = math.Ceil(math.Log2(float64(survivors)))
	}
	p.vt += float64(2 * hops * (p.rt.model.SendOverhead() + p.rt.model.RecvOverhead()) * p.slow)
}

// completeFTLocked checks whether the pending agreement round is
// covered (every rank contributed or is dead); if so it publishes the
// round results, resets the round state, advances the generation, and
// returns true. The caller holds the runtime lock and is responsible
// for waking waiters when it returns true. It runs on every arrival and death, so
// the scan is gated on what coverage implies: contributions plus deaths
// reach n, which happens once per round when nobody dies.
func (rt *Runtime) completeFTLocked() bool {
	if rt.ftCnt == 0 || rt.ftCnt+rt.nDead < rt.n {
		return false
	}
	for r := 0; r < rt.n; r++ {
		rt.roundScans++
		if !rt.ftArr[r] && !rt.deadMask[r].Load() {
			return false
		}
	}
	res := rt.ftOK
	max := math.Inf(-1)
	var alive []int
	for r := 0; r < rt.n; r++ {
		if !rt.ftArr[r] {
			continue
		}
		if rt.ftVals[r] > max {
			max = rt.ftVals[r]
		}
		if !rt.deadMask[r].Load() {
			alive = append(alive, r)
		}
		rt.ftArr[r] = false
	}
	rt.ftRes, rt.ftMax, rt.ftAlive = res, max, alive
	if rt.ftClear {
		rt.revoked.Store(false)
	}
	rt.ftCnt = 0
	rt.ftOK = true
	rt.ftClear = false
	rt.ftGen++
	return true
}

// completeBarrierLocked is the dead-tolerant barrier completion check:
// the pending reduceMax generation completes when every rank has
// arrived or died, with the maximum taken over arrivals. Same contract
// and same gate as completeFTLocked.
func (rt *Runtime) completeBarrierLocked() bool {
	if rt.bcnt == 0 || rt.bcnt+rt.nDead < rt.n {
		return false
	}
	max := math.Inf(-1)
	for r := 0; r < rt.n; r++ {
		rt.roundScans++
		if !rt.bArr[r] {
			if !rt.deadMask[r].Load() {
				return false
			}
			continue
		}
		if rt.reduceVals[r] > max {
			max = rt.reduceVals[r]
		}
	}
	clear(rt.bArr)
	rt.reduceRes = max
	rt.bcnt = 0
	rt.bgen++
	return true
}

// A Comm is a dense survivor communicator produced by Shrink: new
// ranks 0..Size-1 in ascending order of surviving original ranks, with
// translation both ways.
type Comm struct {
	oldOf []int
	newOf []int
}

// NewComm builds a communicator from a strictly ascending member list
// over original ranks [0, n). Shrink produces these automatically; the
// exported constructor exists so callers can form views (e.g. the
// identity communicator) without a failure having occurred.
func NewComm(members []int, n int) *Comm {
	if len(members) == 0 {
		panic("mpirt: NewComm with no members")
	}
	for i, r := range members {
		if r < 0 || r >= n {
			panic(fmt.Sprintf("mpirt: NewComm member %d outside [0,%d)", r, n))
		}
		if i > 0 && members[i-1] >= r {
			panic(fmt.Sprintf("mpirt: NewComm members must be strictly ascending, got %d after %d", r, members[i-1]))
		}
	}
	return newComm(members, n)
}

func newComm(alive []int, n int) *Comm {
	c := &Comm{
		oldOf: append([]int(nil), alive...),
		newOf: make([]int, n),
	}
	for i := range c.newOf {
		c.newOf[i] = -1
	}
	for nr, or := range c.oldOf {
		c.newOf[or] = nr
	}
	return c
}

// Size returns the survivor count.
func (c *Comm) Size() int { return len(c.oldOf) }

// OldRank translates a shrunken rank to its original rank.
func (c *Comm) OldRank(nr int) int { return c.oldOf[nr] }

// NewRank translates an original rank to its shrunken rank, or -1 if
// that rank is not a member (it died).
func (c *Comm) NewRank(or int) int {
	if or < 0 || or >= len(c.newOf) {
		return -1
	}
	return c.newOf[or]
}

// Ranks returns the member original ranks, ascending.
func (c *Comm) Ranks() []int { return append([]int(nil), c.oldOf...) }

// Contains reports whether original rank or survived into this Comm.
func (c *Comm) Contains(or int) bool { return c.NewRank(or) >= 0 }

// String renders the membership for diagnostics.
func (c *Comm) String() string {
	return fmt.Sprintf("comm(%d/%d: %v)", len(c.oldOf), len(c.newOf), c.oldOf)
}

// Endpoint is the communication surface collectives run against: a
// full *Proc or a *SubProc view over a shrunken communicator. All rank
// arguments and Msg.Src values are in the endpoint's own rank space.
type Endpoint interface {
	Rank() int
	Size() int
	Phantom() bool
	ChargeCopy(n int)
	Send(dst, tag, size int, data []byte, meta any)
	Gather(src []byte) Snapshot
	Compose(runs []Piece) Snapshot
	SendSnapshot(dst, tag, size int, s Snapshot, meta any, slot int)
	Recv(src, tag int) Msg
	RecvStep(src, tag, slot int) (m Msg, ok bool)
	Slots(recvs []int32)
	Probe(src, tag int) bool
}

// SubProc is a rank's view of a shrunken communicator: ranks are
// translated through the Comm and tags are shifted into a fresh epoch,
// so recovery traffic cannot match stale messages from the failed
// round. It implements Endpoint.
type SubProc struct {
	p        *Proc
	c        *Comm
	rank     int // shrunken rank of p
	tagShift int
}

// Sub returns this rank's view of communicator c with tags shifted by
// tagShift. The rank must be a member of c.
func (p *Proc) Sub(c *Comm, tagShift int) *SubProc {
	nr := c.NewRank(p.rank)
	if nr < 0 {
		panic(&UsageError{Rank: p.rank, Op: "sub",
			Msg: fmt.Sprintf("rank is not a member of %v", c)})
	}
	return &SubProc{p: p, c: c, rank: nr, tagShift: tagShift}
}

// Comm returns the underlying communicator.
func (s *SubProc) Comm() *Comm { return s.c }

// Proc returns the underlying full-communicator handle.
func (s *SubProc) Proc() *Proc { return s.p }

// Rank returns the shrunken rank.
func (s *SubProc) Rank() int { return s.rank }

// Size returns the shrunken communicator size.
func (s *SubProc) Size() int { return s.c.Size() }

// Phantom reports whether payloads are size-only.
func (s *SubProc) Phantom() bool { return s.p.Phantom() }

// ChargeCopy charges a local copy to the virtual clock.
func (s *SubProc) ChargeCopy(n int) { s.p.ChargeCopy(n) }

func (s *SubProc) xlate(r int, op string) int {
	if r == AnySource {
		return AnySource
	}
	if r < 0 || r >= s.c.Size() {
		panic(&UsageError{Rank: s.p.rank, Op: op,
			Msg: fmt.Sprintf("rank %d out of range 0..%d in %v", r, s.c.Size()-1, s.c)})
	}
	return s.c.OldRank(r)
}

// Send sends to shrunken rank dst.
func (s *SubProc) Send(dst, tag, size int, data []byte, meta any) {
	s.p.Send(s.xlate(dst, "send"), tag+s.tagShift, size, data, meta)
}

// Gather and Compose snapshot; SendSnapshot sends one to shrunken rank
// dst. Slot hints are dropped: a repair's messages can outlive its pass.
func (s *SubProc) Gather(src []byte) Snapshot    { return s.p.Gather(src) }
func (s *SubProc) Compose(runs []Piece) Snapshot { return s.p.Compose(runs) }
func (s *SubProc) SendSnapshot(dst, tag, size int, snap Snapshot, meta any, _ int) {
	s.p.SendSnapshot(s.xlate(dst, "send"), tag+s.tagShift, size, snap, meta, -1)
}
func (s *SubProc) Slots([]int32) {}

// Recv receives from shrunken rank src (AnySource allowed); the
// returned Msg.Src is in shrunken-rank space.
func (s *SubProc) Recv(src, tag int) Msg {
	m := s.p.Recv(s.xlate(src, "recv"), tag+s.tagShift)
	m.Src = s.c.NewRank(m.Src)
	m.Tag -= s.tagShift
	return m
}

// RecvStep is Proc.RecvStep in shrunken-rank space.
func (s *SubProc) RecvStep(src, tag, _ int) (Msg, bool) {
	m, ok := s.p.RecvStep(s.xlate(src, "recv"), tag+s.tagShift, -1)
	if ok {
		m.Src = s.c.NewRank(m.Src)
		m.Tag -= s.tagShift
	}
	return m, ok
}

// Probe reports whether a matching message is queued, in shrunken-rank
// space.
func (s *SubProc) Probe(src, tag int) bool {
	return s.p.Probe(s.xlate(src, "probe"), tag+s.tagShift)
}

// FTEpoch returns a fresh collective epoch number for this rank,
// starting at 1. Recovery layers fold it into their tag shift so
// successive fault-tolerant collectives on one runtime never share tag
// space. All ranks calling in the same order get the same sequence.
func (p *Proc) FTEpoch() int {
	p.ftEpoch++
	return p.ftEpoch
}

// SendErr is Send with error propagation instead of panics for
// failure conditions: it returns *RankFailedError if dst is dead and
// *CommRevokedError if the communicator is revoked. Usage errors
// still panic (and abort the run). It is the shared-snapshot path:
// Gather, one send, the handle's Release.
func (p *Proc) SendErr(dst, tag, size int, data []byte, meta any) error {
	var s Snapshot
	if data != nil {
		s = p.Gather(data)
	}
	err := p.sendErr(dst, tag, size, s, meta, -1)
	s.Release()
	return err
}

// RecvErr is Recv with error propagation: instead of blocking forever
// on a dead peer it returns *RankFailedError naming the dead rank
// (charging the detection timeout to virtual time on first
// detection), and returns *CommRevokedError if the communicator is
// revoked while waiting.
func (p *Proc) RecvErr(src, tag int) (m Msg, err error) {
	_, err = p.recv(src, tag, -1, false, &m)
	return m, err
}

// deadRanksOf lists the dead ranks from the mask, ascending.
func (rt *Runtime) deadRanksOf() []int {
	var dead []int
	for r := 0; r < rt.n; r++ {
		if rt.deadMask[r].Load() {
			dead = append(dead, r)
		}
	}
	return dead
}
