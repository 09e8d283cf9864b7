// Differential conformance: a case runs once per execution engine —
// the threaded goroutine-per-rank oracle and the serial event loop —
// under plain scheduling, and the two runs are compared. (Chaos is a
// driver of its own and never enters this comparison: a chaos run is
// checked against ground truth and against its own replay.) The ladder
// has two rungs:
//
//   - Outcome, always: both runs pass their own analytic ground-truth
//     checks (buffers, pattern invariants, recovery agreement), or both
//     prove the identical deadlock cycle.
//
//   - Traffic, when the case says it is comparable: the message and
//     byte censuses by distance class are identical, because both
//     engines execute the same program against the same cost model.
//
// Virtual times are deliberately not compared: the threaded engine's
// depend on host scheduling order (resource acquisition in the network
// model is first-come-first-served across racing goroutines); the
// event engine's are self-deterministic, which
// TestEventEngineSelfDeterministic in internal/mpirt pins separately.
package conformance

import (
	"errors"
	"fmt"

	"nbrallgather/internal/mpirt"
)

// errBothFailed marks a Diff whose two runs both failed without
// proving a common deadlock: a violation in a sweep, but consistent
// behaviour to a fuzzer feeding both engines arbitrary programs.
var errBothFailed = errors.New("both engines failed")

// Diff runs one case of any family on both engines under plain
// scheduling and returns the first cross-engine divergence or
// single-engine violation. It is a Check: Sweep(cases, seeds, Diff, …)
// is the differential sweep.
func Diff(c Runner, seed int64) error {
	engs := mpirt.Engines()
	repA, errA := c.Run(engs[0], seed, nil)
	repB, errB := c.Run(engs[1], seed, nil)
	switch {
	case errA != nil && errB != nil:
		var da, db *mpirt.DeadlockError
		if !errors.As(errA, &da) || !errors.As(errB, &db) {
			return fmt.Errorf("%w: %s: %v; %s: %v", errBothFailed, engs[0], errA, engs[1], errB)
		}
		if !da.SameCycle(db) {
			return fmt.Errorf("deadlock cycles diverge: %s %v, %s %v", engs[0], da.Cycle, engs[1], db.Cycle)
		}
		return nil // both engines proved the identical cycle
	case errA != nil:
		return fmt.Errorf("engine %s failed where %s passed: %w", engs[0], engs[1], errA)
	case errB != nil:
		return fmt.Errorf("engine %s failed where %s passed: %w", engs[1], engs[0], errB)
	}
	if repA == nil || repB == nil || !c.TrafficComparable() {
		return nil
	}
	if repA.MsgsByDist != repB.MsgsByDist {
		return fmt.Errorf("message census diverges: %s %v, %s %v", engs[0], repA.MsgsByDist, engs[1], repB.MsgsByDist)
	}
	if repA.BytesByDist != repB.BytesByDist {
		return fmt.Errorf("byte census diverges: %s %v, %s %v", engs[0], repA.BytesByDist, engs[1], repB.BytesByDist)
	}
	return nil
}
