package mpirt

import (
	"fmt"
	"strings"
)

// This file implements the wait-for-graph deadlock detector. Every
// blocked rank records the operation, peer, and tag it is waiting on;
// a posted receive on a specific live source with no matching message
// available contributes the edge rank → source to the wait-for graph.
// Because each blocked rank has at most one outgoing edge the graph is
// functional, so cycle detection is a pointer chase: the chase runs the
// moment a rank blocks, which is the only instant a new cycle can form.
// A proven cycle fails the run immediately at the current virtual time
// and, on the serial drivers, at a deterministic point: under the chaos
// scheduler, at a fixed position in the decision stream, so record and
// replay report the identical cycle. Every driver publishes its posted
// receives in the mailbox's wait fields, and the core reads them one
// rank at a time (see driver), so one detector and one summary serve
// all three.

// WaitEdge is one edge of a deadlock cycle: Rank is blocked in Op
// waiting on Peer with the given tag.
type WaitEdge struct {
	Rank int
	Op   string
	Peer int
	Tag  int
}

func (e WaitEdge) String() string {
	return fmt.Sprintf("rank %d --%s(tag %d)--> rank %d", e.Rank, e.Op, e.Tag, e.Peer)
}

// DeadlockError is the failure reported when the wait-for graph proves
// a deadlock: Cycle is the closed chain of blocked ranks (canonically
// rotated so the smallest rank leads), VT the virtual time at which the
// cycle closed, and Summary the full blocked-rank dump for context.
// It unwraps to ErrDeadlock, so errors.Is(err, ErrDeadlock) matches.
type DeadlockError struct {
	Cycle   []WaitEdge
	VT      float64
	Summary string
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: proven wait-for cycle at vt %.6g: ", ErrDeadlock, e.VT)
	for i, w := range e.Cycle {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(w.String())
	}
	if e.Summary != "" {
		fmt.Fprintf(&b, " (%s)", e.Summary)
	}
	return b.String()
}

func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// SameCycle reports whether two deadlock errors prove the identical
// cycle. Cycles are stored canonically, so this is a plain comparison.
func (e *DeadlockError) SameCycle(o *DeadlockError) bool {
	if o == nil || len(e.Cycle) != len(o.Cycle) {
		return false
	}
	for i := range e.Cycle {
		if e.Cycle[i] != o.Cycle[i] {
			return false
		}
	}
	return true
}

// canonicalCycle rotates the cycle so the smallest rank leads, giving
// every detection of the same cycle — across goroutine interleavings,
// chaos seeds, and replays — one canonical representation.
func canonicalCycle(cycle []WaitEdge) []WaitEdge {
	if len(cycle) == 0 {
		return cycle
	}
	min := 0
	for i, e := range cycle {
		if e.Rank < cycle[min].Rank {
			min = i
		}
	}
	out := make([]WaitEdge, 0, len(cycle))
	out = append(out, cycle[min:]...)
	out = append(out, cycle[:min]...)
	return out
}

// recvEdge returns rank r's outgoing wait-for edge, or ok=false when r
// is not provably stuck: not parked in a receive, waiting on AnySource
// (any live peer could satisfy it), waiting on a dead peer (the receive
// fails rather than blocks), or a matching message is already pending —
// in the in-flight pool under chaos, whose mailboxes only ever hold the
// one message a delivery files for the rank it resumes (a delivered
// chaos duplicate only ever gets dropped, so it does not count), in the
// mailbox otherwise. A woken rank that has not run yet keeps its wait
// published, but whatever woke it makes the edge fail one of these
// tests.
func (rt *Runtime) recvEdge(r int) (WaitEdge, bool) {
	b := &rt.boxes[r]
	if !b.waiter || b.wSrc == AnySource {
		return WaitEdge{}, false
	}
	if rt.deadMask[b.wSrc].Load() || rt.revoked.Load() {
		return WaitEdge{}, false
	}
	pending := b.matchesLocked(b.wSrc, b.wTag, b.wHint)
	if cs := rt.chaos; cs != nil {
		pending = cs.deliverable(r, b.wSrc, b.wTag)
	}
	if pending {
		return WaitEdge{}, false
	}
	return WaitEdge{Rank: r, Op: "recv", Peer: b.wSrc, Tag: b.wTag}, true
}

// detectRecvCycle chases the wait-for chain starting at rank start and
// returns a proven deadlock, or nil. Called by a rank that has just
// published its posted receive, before it parks: a new cycle must pass
// through a newly blocked rank, so checking at block time catches every
// cycle the moment it closes. The chase reads every edge in one
// runtime call, so the chain it sees is the one that exists: no edge
// can be satisfied under it. The cycle's virtual time is the latest
// member's post time.
// The chase runs on every posted receive, so it reuses rt.chase and
// does not allocate on the (overwhelmingly common) no-cycle path; one
// buffer serves every rank, since the core sees one at a time. Revisit
// detection is a linear scan of the path — wait-for chains are at most
// n long and almost always 1–2.
func (rt *Runtime) detectRecvCycle(start int) *DeadlockError {
	path := rt.chase[:0]
	r := start
	for {
		cyc := -1
		for i := range path {
			if path[i].Rank == r {
				cyc = i // the chain closed: keep only the cycle
				break
			}
		}
		if cyc >= 0 {
			path = path[cyc:]
			break
		}
		e, ok := rt.recvEdge(r)
		if !ok {
			rt.chase = path
			return nil
		}
		path = append(path, e)
		r = e.Peer
	}
	vt := 0.0
	for _, e := range path {
		vt = max(vt, rt.boxes[e.Rank].wVT)
	}
	return &DeadlockError{Cycle: canonicalCycle(path), VT: vt, Summary: rt.blockedSummary()}
}
