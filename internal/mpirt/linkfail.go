// Link-level failure surface: typed errors, virtual-time detection, and
// the deliverability checks the P2P paths run against the netmodel
// link-fault state (netmodel/linkfault.go).
//
// The contract mirrors the fail-stop model (failure.go): a send across
// a down link fails fast with a typed error instead of injecting a
// message that can never be delivered, a receive posted against a down
// path (with nothing matching already queued) fails instead of parking
// forever — on every driver — and the first observation of each down
// resource charges the detection timeout to the observer's virtual
// clock, memoised per (observer, resource) exactly like chargeDetect.
// Messages that were already in flight or queued when the fault hit
// remain deliverable, mirroring the queued-messages-from-a-dead-rank
// rule: the eager transfer had completed.
//
// Under the chaos scheduler, first observations are recorded inline in
// the decision schedule (trace.DecisionLinkFault) by the observing rank
// while it is the one running, so recorded link-fault schedules replay
// bit-exactly.
package mpirt

import (
	"errors"
	"fmt"

	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/trace"
)

// ErrLinkFailed is the sentinel both link-level failures match:
// errors.Is(err, ErrLinkFailed) holds for *LinkFailedError and
// *PartitionError.
var ErrLinkFailed = errors.New("mpirt: link failed")

// LinkFailedError reports that an operation could not complete because
// a fabric resource on its path is down — the link-level analogue of
// RankFailedError. It matches ErrLinkFailed via errors.Is.
type LinkFailedError struct {
	// Res is the down resource (port, NIC, or uplink).
	Res netmodel.Resource
	// Src and Dst are the endpoints of the undeliverable transfer.
	Src, Dst int
}

func (e *LinkFailedError) Error() string {
	return fmt.Sprintf("mpirt: %s down: transfer %d→%d undeliverable", e.Res, e.Src, e.Dst)
}

// Is matches the ErrLinkFailed sentinel.
func (e *LinkFailedError) Is(target error) bool { return target == ErrLinkFailed }

// PartitionError reports that the fabric is partitioned: either one
// transfer crossed a cut (Src/Dst set), or — when returned from the
// collective repair layer — the surviving communication graph is
// unsatisfiable on the wounded fabric (Src = Dst = -1, and every
// surviving rank returns an identical error). It matches ErrLinkFailed
// via errors.Is.
type PartitionError struct {
	// Groups lists the groups on one side of the cut, ascending; nil
	// when the unsatisfiability comes from a down resource rather than
	// a fabric cut.
	Groups []int
	// Src and Dst are the endpoints of the blocked transfer, or -1/-1
	// for a repair-layer verdict about the whole graph.
	Src, Dst int
}

func (e *PartitionError) Error() string {
	if e.Src < 0 && e.Dst < 0 {
		if e.Groups == nil {
			return "mpirt: fabric unsatisfiable: surviving graph has no feasible routes"
		}
		return fmt.Sprintf("mpirt: fabric partitioned at groups %v: surviving graph unsatisfiable", e.Groups)
	}
	return fmt.Sprintf("mpirt: fabric partitioned at groups %v: transfer %d→%d undeliverable", e.Groups, e.Src, e.Dst)
}

// Is matches the ErrLinkFailed sentinel.
func (e *PartitionError) Is(target error) bool { return target == ErrLinkFailed }

// linkBlockedErr builds the typed error for a blocked transfer and
// charges the one-time detection cost to the observer.
func (p *Proc) linkBlockedErr(blk netmodel.Blocked, src, dst int) error {
	p.chargeLinkDetect(blk.Res)
	if blk.IsPartition() {
		return &PartitionError{Groups: append([]int(nil), blk.Groups...), Src: src, Dst: dst}
	}
	return &LinkFailedError{Res: blk.Res, Src: src, Dst: dst}
}

// chargeLinkDetect charges the one-time detection timeout for a down
// resource to this rank's virtual clock, memoised per (observer,
// resource) — the same modelled heartbeat/ack cost as per-peer failure
// detection. Under chaos, the first observation is recorded inline in
// the decision schedule (the observer is the one rank running, so the
// record's position in the stream is deterministic).
func (p *Proc) chargeLinkDetect(res netmodel.Resource) {
	if p.linkDetected == nil {
		p.linkDetected = make(map[netmodel.Resource]bool)
	}
	if p.linkDetected[res] {
		return
	}
	p.linkDetected[res] = true
	p.vt += float64(detectTimeout * p.slow)
	p.linkDetectTime += detectTimeout
	p.linkDetections++
	if cs := p.rt.chaos; cs != nil {
		cs.record(trace.Decision{
			Kind: trace.DecisionLinkFault, Rank: p.rank,
			Src: int(res.Kind), Tag: res.Index,
		})
	}
}

// linkSendBlocked checks deliverability of a send at the sender's
// current virtual time; it returns the typed error for a blocked path,
// nil otherwise. Callers gate on Model().HasLinkFaults() so healthy
// runs pay nothing.
func (p *Proc) linkSendBlocked(dst int) error {
	blk, bad := p.rt.model.PathBlocked(p.rank, dst, p.vt)
	if !bad {
		return nil
	}
	return p.linkBlockedErr(blk, p.rank, dst)
}

// linkRecvBlocked checks, for a receive posted on a specific source
// with nothing matching queued, whether the src→self path is down at
// the receiver's current virtual time. The check runs at post time and
// on every re-wake, so the event driver evaluates it at deterministic
// points; AnySource receives are exempt (another source may still
// deliver, and a sender that cannot reach us observes its own typed
// error and revokes).
func (p *Proc) linkRecvBlocked(src int) error {
	blk, bad := p.rt.model.PathBlocked(src, p.rank, p.vt)
	if !bad {
		return nil
	}
	return p.linkBlockedErr(blk, src, p.rank)
}
