// Package tags is the message-tag registry: every tag any component of
// the repository puts on the wire is declared here, in one place, so
// the tag spaces of the collectives, the pattern-build protocols and
// the fail-stop recovery epochs are disjoint by construction and
// auditable at a glance.
//
// Discipline, enforced by the tagdiscipline analyzer (internal/lint):
// outside this package, no integer literal may be passed as a tag
// argument to a runtime operation — tags are always a registry
// constant, a registry constant plus a step/round index, or a value
// derived through FTShift. That keeps cross-matching between phases
// impossible to introduce silently: a new protocol must claim its tag
// block here, next to everyone else's.
//
// Layout (base values; "+ step"/"+ round" blocks own the interval up
// to the next base):
//
//	    1         naive allgather
//	   99         distance-halving remainder phase
//	  100 + step  distance-halving halving steps
//	  200, 201    common-neighbor share / deliver
//	  300         naive alltoall
//	  399         distance-halving alltoall remainder phase
//	  400 + step  distance-halving alltoall halving steps
//	  500…503     leader-based hierarchy phases
//	10000…60000+  distributed pattern-build negotiation protocol
//	70000…73000+  common-neighbor group-formation protocols
//	≥ 1<<19       fail-stop recovery epochs (FTShift)
package tags

// Neighborhood allgather tag spaces. Each algorithm owns a disjoint
// block so mixed runs (e.g. back-to-back verification) cannot
// cross-match.
const (
	// Naive is the direct point-to-point allgather.
	Naive = 1
	// DHFinal is the distance-halving remainder phase.
	DHFinal = 99
	// DHStep is the distance-halving halving phase; add the step index
	// (step < DHFinal-ladder width never exceeds ⌈log2 n⌉ ≤ 63).
	DHStep = 100 // + step
	// CNShare / CNDeliv are the common-neighbor intra-group share and
	// delegated combined delivery.
	CNShare = 200
	CNDeliv = 201
)

// Neighborhood alltoall tag spaces, disjoint from the allgather blocks.
const (
	A2ANaive = 300
	A2AFinal = 399
	A2AStep  = 400 // + step
)

// Leader-based hierarchy phases.
const (
	LBDirect = 500
	LBGather = 501
	LBNode   = 502
	LBDist   = 503
)

// Distributed pattern-build negotiation protocol (Algorithms 1–3).
// Each halving step uses its own tag group so asynchronously
// progressing ranks never mismatch messages.
const (
	// PropBase/ReplyBase carry REQ/EXIT and ACCEPT/DROP signals:
	// add step*4 + phase*2.
	PropBase  = 10000 // + step*4 + phase*2 : proposer → acceptor
	ReplyBase = 10001 // + step*4 + phase*2 : acceptor → proposer
	// DescBase ships the descriptor D plus buffer source list.
	DescBase = 30000 // + step
	// NoteBase is the per-step agent notification to out-neighbors.
	NoteBase = 40000 // + step
	// FinalNote announces remainder-phase senders.
	FinalNote = 50000
	// Exchange is the calculate_A neighbor-list allgather.
	Exchange = 60000 // + distance
)

// Common-neighbor group-formation protocol (the affinity grouping cost
// model).
const (
	CNPairBase = 71000 // + round
	CNMerge    = 72000
	CNAffNote  = 73000
)

// Micro-benchmark traffic (cmd/nbr-perf's mpirt layer rows, and the
// perfmodel calibration ping-pong). The benchmarks never run inside a
// collective, but their tags still get a registered block so the
// discipline holds module-wide.
const (
	BenchPing    = 80000
	BenchPong    = 80001
	BenchParked  = 81000 // + index: parked backlog, never received
	BenchRotBase = 82000 // + i%7: wildcard-receive rotation
)

// Prop and Reply are the negotiation's tags at step step, phase 0 or 1.
func Prop(step, phase int) int  { return PropBase + step*4 + phase*2 }
func Reply(step, phase int) int { return ReplyBase + step*4 + phase*2 }

// FTShift returns the tag-space shift of one fail-stop attempt: every
// fault-tolerant collective invocation (epoch ≥ 1) and every recovery
// round within it gets a disjoint tag epoch, so re-runs can never
// match stale messages from an abandoned attempt — including eager
// sends a rank issued just before dying. The smallest shift,
// FTShift(1, 0) = 1<<19, clears every static block above; successive
// epochs/rounds step by 1<<13, wider than any static block's internal
// step ladder.
func FTShift(epoch, round int) int {
	return (epoch*64 + round) << 13
}

// blocks names the registry's blocks for Phase: tags [lo, lo+n), each
// step of a ladder stride tags wide (stride 0: one phase, no steps).
var blocks = []struct {
	name          string
	lo, n, stride int
}{
	{"naive", Naive, 1, 0}, {"dh-final", DHFinal, 1, 0}, {"dh-step", DHStep, 64, 1},
	{"cn-share", CNShare, 1, 0}, {"cn-deliv", CNDeliv, 1, 0},
	{"a2a-naive", A2ANaive, 1, 0}, {"a2a-final", A2AFinal, 1, 0}, {"a2a-step", A2AStep, 64, 1},
	{"lb-direct", LBDirect, 1, 0}, {"lb-gather", LBGather, 1, 0}, {"lb-node", LBNode, 1, 0}, {"lb-dist", LBDist, 1, 0},
	{"build-prop-reply", PropBase, 64 * 4, 4}, {"build-desc", DescBase, 64, 1}, {"build-note", NoteBase, 64, 1},
	{"build-final", FinalNote, 1, 0}, {"build-exchange", Exchange, 8192, 1},
	{"cn-pair", CNPairBase, 64, 1},
	{"cn-merge", CNMerge, 1, 0}, {"cn-aff-note", CNAffNote, 1, 0},
	{"bench", BenchPing, BenchRotBase + 7 - BenchPing, 0},
}

// Phase names the protocol phase of a tag: its block's name, the step
// within a ladder block — halving or negotiation step, Bruck distance,
// pairing round — or −1 in a block of one phase, and the fail-stop epoch
// FTShift moved it to (0 outside recovery). A tag in no block is
// "other", its step the tag itself.
func Phase(tag int) (name string, step, epoch int) {
	if tag >= FTShift(1, 0) {
		epoch, tag = tag>>13/64, tag&(1<<13-1)
	}
	for _, b := range blocks {
		if tag >= b.lo && tag < b.lo+b.n {
			if b.stride == 0 {
				return b.name, -1, epoch
			}
			return b.name, (tag - b.lo) / b.stride, epoch
		}
	}
	return "other", tag, epoch
}
