// Package trace records the scheduling decisions of a chaos-mode mpirt
// run (Schedule) so that a seed's run can be replayed exactly.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
)

// A Schedule records the complete sequence of scheduling decisions a
// chaos-mode mpirt run makes: which rank ran next,
// which in-flight message was matched to which blocked receive, and
// which duplicated deliveries were deduplicated. Because chaos-mode
// execution is serial and every nondeterministic choice is drawn from
// the seeded chaos RNG, the schedule is a pure function of (program,
// seed): recording two runs of the same seed must produce equal
// schedules, and a recorded schedule can be fed back to force an exact
// replay even while debugging with modified scheduling code. A chaos
// run is serial, so a Schedule needs no lock.
type Schedule struct {
	decisions []Decision
}

// DecisionKind classifies one scheduling decision.
type DecisionKind uint8

const (
	// DecisionResume resumes a runnable rank.
	DecisionResume DecisionKind = iota
	// DecisionDeliver matches one in-flight message to a blocked
	// receive and resumes the receiver.
	DecisionDeliver
	// DecisionDropDup discards an in-flight duplicate of a message
	// that was already delivered (the dedup path).
	DecisionDropDup
	// DecisionKill marks a fail-stop crash injection firing: Rank died
	// at this point of the serial execution. Kills are inputs (the
	// -kill schedule), recorded so dumps and replays show them in
	// context and the determinism fingerprint covers them.
	DecisionKill
	// DecisionFailNotify delivers a failure notification to a blocked
	// receiver: Rank observed the permanent failure of Src.
	DecisionFailNotify
	// DecisionRevokeNotify resumes a receiver that was blocked when the
	// communicator was revoked; it observes a revocation error.
	DecisionRevokeNotify
	// DecisionLinkFault marks a rank's first observation of a down link
	// resource: Rank paid the detection timeout for the resource encoded
	// as (Src = resource kind, Tag = resource index). Like kills, these
	// are recorded inline by the observing rank — the one running — not
	// chosen by the scheduler, so replay skips them when resolving a pick
	// and the determinism fingerprint covers them.
	DecisionLinkFault
)

var kindNames = [...]string{"resume", "deliver", "drop-dup", "kill", "fail-notify", "revoke-notify", "link-fault"}

// String returns a short label for the kind.
func (k DecisionKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("DecisionKind(%d)", uint8(k))
}

// Decision is one scheduling decision. For DecisionResume only Rank is
// meaningful; for the message kinds, Rank is the destination and
// (Src, SendSeq) identify the message uniquely within the run (SendSeq
// is the sender's per-rank send counter).
type Decision struct {
	Kind    DecisionKind
	Rank    int
	Src     int
	Tag     int
	SendSeq uint64
	Size    int
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// Record appends one decision.
func (s *Schedule) Record(d Decision) { s.decisions = append(s.decisions, d) }

// Len returns the number of recorded decisions.
func (s *Schedule) Len() int { return len(s.decisions) }

// At returns decision i and whether it exists.
func (s *Schedule) At(i int) (Decision, bool) {
	if i < 0 || i >= len(s.decisions) {
		return Decision{}, false
	}
	return s.decisions[i], true
}

// Reset discards all recorded decisions.
func (s *Schedule) Reset() { s.decisions = s.decisions[:0] }

// Hash returns an FNV-1a digest of the decision sequence. Two runs of
// the same seed must produce the same hash — this is the determinism
// and replay fingerprint the chaos harness compares.
func (s *Schedule) Hash() uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, d := range s.decisions {
		buf = buf[:0]
		for _, v := range [...]uint64{uint64(d.Kind), uint64(d.Rank), uint64(d.Src), uint64(d.Tag), d.SendSeq, uint64(d.Size)} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// Equal reports whether two schedules recorded identical decision
// sequences.
func (s *Schedule) Equal(o *Schedule) bool { return slices.Equal(s.decisions, o.decisions) }

// Diverge returns the index of the first differing decision between two
// schedules, or -1 if one is a prefix of the other (or they are equal).
func (s *Schedule) Diverge(o *Schedule) int {
	for i := range min(len(s.decisions), len(o.decisions)) {
		if s.decisions[i] != o.decisions[i] {
			return i
		}
	}
	return -1
}

// Counts tallies the decisions by kind: resumes, message
// deliveries, and deduplicated duplicates.
func (s *Schedule) Counts() (resumes, delivers, drops int) {
	return s.CountKind(DecisionResume), s.CountKind(DecisionDeliver), s.CountKind(DecisionDropDup)
}

// CountKind returns the number of decisions of one kind.
func (s *Schedule) CountKind(k DecisionKind) int {
	n := 0
	for _, d := range s.decisions {
		if d.Kind == k {
			n++
		}
	}
	return n
}

// Write renders the schedule as one line per decision, the format
// `nbr-chaos -replay -dump` prints.
func (s *Schedule) Write(w io.Writer) error {
	for i, d := range s.decisions {
		var err error
		switch d.Kind {
		case DecisionResume:
			_, err = fmt.Fprintf(w, "%6d resume   rank %d\n", i, d.Rank)
		case DecisionKill:
			_, err = fmt.Fprintf(w, "%6d kill     rank %d\n", i, d.Rank)
		case DecisionRevokeNotify:
			_, err = fmt.Fprintf(w, "%6d revoke-notify rank %d\n", i, d.Rank)
		case DecisionFailNotify:
			_, err = fmt.Fprintf(w, "%6d fail-notify rank %d: rank %d failed\n", i, d.Rank, d.Src)
		case DecisionLinkFault:
			_, err = fmt.Fprintf(w, "%6d link-fault rank %d: resource kind %d index %d down\n", i, d.Rank, d.Src, d.Tag)
		default:
			_, err = fmt.Fprintf(w, "%6d %-8s %d→%d tag %d seq %d size %d\n",
				i, d.Kind, d.Src, d.Rank, d.Tag, d.SendSeq, d.Size)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
