package trace

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
)

// A Schedule records the complete sequence of scheduling decisions a
// chaos-mode mpirt run makes: which rank ran next,
// which in-flight message was matched to which blocked receive, and
// which duplicated deliveries were deduplicated. Because chaos-mode
// execution is serial and every nondeterministic choice is drawn from
// the seeded chaos RNG, the schedule is a pure function of (program,
// seed): recording two runs of the same seed must produce equal
// schedules, and a recorded schedule can be fed back to force an exact
// replay even while debugging with modified scheduling code.
type Schedule struct {
	mu        sync.Mutex
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
	// chosen by the scheduler, so replay skips
	// them when resolving a pick and the determinism fingerprint covers
	// them.
	DecisionLinkFault
)

// String returns a short label for the kind.
func (k DecisionKind) String() string {
	switch k {
	case DecisionResume:
		return "resume"
	case DecisionDeliver:
		return "deliver"
	case DecisionDropDup:
		return "drop-dup"
	case DecisionKill:
		return "kill"
	case DecisionFailNotify:
		return "fail-notify"
	case DecisionRevokeNotify:
		return "revoke-notify"
	case DecisionLinkFault:
		return "link-fault"
	default:
		return fmt.Sprintf("DecisionKind(%d)", uint8(k))
	}
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
func (s *Schedule) Record(d Decision) {
	s.mu.Lock()
	s.decisions = append(s.decisions, d)
	s.mu.Unlock()
}

// Len returns the number of recorded decisions.
func (s *Schedule) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.decisions)
}

// At returns decision i and whether it exists.
func (s *Schedule) At(i int) (Decision, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.decisions) {
		return Decision{}, false
	}
	return s.decisions[i], true
}

// Decisions returns a snapshot of all decisions in order.
func (s *Schedule) Decisions() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Decision(nil), s.decisions...)
}

// Reset discards all recorded decisions.
func (s *Schedule) Reset() {
	s.mu.Lock()
	s.decisions = s.decisions[:0]
	s.mu.Unlock()
}

// Hash returns an FNV-1a digest of the decision sequence. Two runs of
// the same seed must produce the same hash — this is the determinism
// and replay fingerprint the chaos harness compares.
func (s *Schedule) Hash() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, d := range s.decisions {
		wr(uint64(d.Kind))
		wr(uint64(d.Rank))
		wr(uint64(int64(d.Src)))
		wr(uint64(int64(d.Tag)))
		wr(d.SendSeq)
		wr(uint64(d.Size))
	}
	return h.Sum64()
}

// Equal reports whether two schedules recorded identical decision
// sequences.
func (s *Schedule) Equal(o *Schedule) bool {
	a, b := s.Decisions(), o.Decisions()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diverge returns the index of the first differing decision between two
// schedules, or -1 if one is a prefix of the other (or they are equal).
func (s *Schedule) Diverge(o *Schedule) int {
	a, b := s.Decisions(), o.Decisions()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// Counts tallies the decisions by kind: resumes, message
// deliveries, and deduplicated duplicates.
func (s *Schedule) Counts() (resumes, delivers, drops int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.decisions {
		switch d.Kind {
		case DecisionResume:
			resumes++
		case DecisionDeliver:
			delivers++
		case DecisionDropDup:
			drops++
		}
	}
	return
}

// CountKind returns the number of decisions of one kind.
func (s *Schedule) CountKind(k DecisionKind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	for i, d := range s.Decisions() {
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
