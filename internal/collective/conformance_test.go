package collective_test

// The differential conformance suite: every algorithm × collective in
// this package, plus the distributed pattern builder, must produce
// byte-identical results under adversarial message schedules and
// injected faults. The matrix and runner live in internal/conformance;
// cmd/nbr-chaos exposes the same sweep (with more seeds) and replay
// from the command line. A failure here prints the exact
// `nbr-chaos -replay` invocation that reproduces the schedule.

import (
	"testing"

	"nbrallgather/internal/conformance"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/trace"
)

func conformanceSeeds(t *testing.T) []int64 {
	n := int64(12)
	if testing.Short() {
		n = 3
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

// TestConformanceAdversarial is the headline suite: the full matrix
// under DefaultChaos (adversarial scheduling + duplication + latency
// spikes + transient send failures + slow ranks).
func TestConformanceAdversarial(t *testing.T) {
	cases, err := conformance.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	failures := conformance.Sweep(cases, conformanceSeeds(t), conformance.UnderChaos(mpirt.DefaultChaos), nil)
	for _, f := range failures {
		t.Errorf("%s\n  replay: nbr-chaos -case %s -replay %d", f, f.Case.CaseName(), f.Seed)
	}
}

// TestConformanceScheduleOnly isolates pure reordering (no faults):
// a failure here but not above would mean a fault-model bug rather
// than an algorithm bug, and vice versa.
func TestConformanceScheduleOnly(t *testing.T) {
	cases, err := conformance.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	failures := conformance.Sweep(cases, conformanceSeeds(t), conformance.UnderChaos(mpirt.ScheduleOnly), nil)
	for _, f := range failures {
		t.Errorf("%s\n  replay: nbr-chaos -case %s -replay %d -schedule-only", f, f.Case.CaseName(), f.Seed)
	}
}

// TestConformanceReplayableSchedules: for a sample of cases, recording
// the same (case, seed) twice yields the identical schedule — the
// property the replay workflow rests on.
func TestConformanceReplayableSchedules(t *testing.T) {
	cases, err := conformance.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	stride := len(cases)/7 + 1
	for i := 0; i < len(cases); i += stride {
		c := cases[i]
		t.Run(c.Name, func(t *testing.T) {
			record := func() *trace.Schedule {
				s := trace.NewSchedule()
				ch := mpirt.DefaultChaos(99)
				ch.Record = s
				if _, err := c.Run(mpirt.EngineDefault, 0, ch); err != nil {
					t.Fatal(err)
				}
				return s
			}
			s1, s2 := record(), record()
			if s1.Hash() != s2.Hash() {
				t.Fatalf("same seed, different schedules (diverge at %d)", s1.Diverge(s2))
			}
			// And the recorded schedule force-replays cleanly.
			ch := mpirt.DefaultChaos(99)
			ch.Replay = s1
			if _, err := c.Run(mpirt.EngineDefault, 0, ch); err != nil {
				t.Fatalf("forced replay: %v", err)
			}
		})
	}
}

// TestConformanceCoverage pins the matrix shape so a refactor cannot
// silently drop an algorithm or collective from the sweep.
func TestConformanceCoverage(t *testing.T) {
	cases, err := conformance.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	byColl := map[string]int{}
	byAlgo := map[string]int{}
	for _, c := range cases {
		byColl[c.Coll]++
		byAlgo[c.Algo]++
	}
	for _, coll := range []string{"allgather", "allgatherv"} {
		if byAlgo["naive"] == 0 || byColl[coll] < 4 {
			t.Fatalf("collective %s underrepresented: %v", coll, byColl)
		}
	}
	for _, want := range []string{"alltoall", "alltoallv", "persistent", "pattern"} {
		if byColl[want] == 0 {
			t.Fatalf("matrix dropped %s: %v", want, byColl)
		}
	}
	if len(cases) < 50 {
		t.Fatalf("matrix shrank to %d cases", len(cases))
	}
}
