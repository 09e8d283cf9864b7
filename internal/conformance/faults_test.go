package conformance

import (
	"reflect"
	"strings"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/trace"
)

// faultHalves is the fault family's table: the two halves FaultMatrix
// lists in order, each with the kinds and timings it must cover and
// what its replay schedules must record.
var faultHalves = []struct {
	prefix  string
	min     int      // at least this many cases
	kinds   []string // every kind appears
	timings []string // every timing appears
	// replay picks the cases checkFaultReplay records, and
	// detects says which of them must record a decision of kind.
	replay  func(FaultCase) bool
	detects func(FaultCase) bool
	kind    trace.DecisionKind
}{
	{
		prefix:  "failstop/",
		min:     30,
		kinds:   []string{KindPre, KindMid, KindAgent, KindLeader, KindMulti, KindRaw},
		timings: []string{""},
		replay: func(c FaultCase) bool {
			return strings.Contains(c.Name, "er35") && (c.Kind == KindMid || c.Kind == KindMulti || c.Kind == KindRaw)
		},
		detects: func(FaultCase) bool { return true },
		kind:    trace.DecisionKill,
	},
	{
		prefix:  "linkfault/",
		min:     60,
		kinds:   []string{LFNicDown, LFPortDown, LFUplinkDown, LFPartition, LFPartitionOK, LFNicDeg, LFUplinkDeg, LFMixed},
		timings: []string{LFBefore, LFMid},
		replay: func(c FaultCase) bool {
			return c.Timing == LFBefore && c.Recover && !c.ExpectClean && (c.Kind == LFNicDown || strings.HasPrefix(c.Kind, LFPartition))
		},
		// Partition cases (either cut) cross it on the first attempt, so
		// their schedules must record the detection; nicdown cases may
		// route around the dead NIC without ever observing it.
		detects: func(c FaultCase) bool { return strings.HasPrefix(c.Kind, LFPartition) },
		kind:    trace.DecisionLinkFault,
	},
}

// halfOf returns the index in faultHalves of the half c belongs to.
func halfOf(t *testing.T, c FaultCase) int {
	t.Helper()
	for i, h := range faultHalves {
		if strings.HasPrefix(c.Name, h.prefix) {
			return i
		}
	}
	t.Fatalf("%s: in no half of the fault family", c.Name)
	return -1
}

func faultMatrix(t *testing.T) []FaultCase {
	t.Helper()
	cases, err := FaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// faultHalf returns the cases of FaultMatrix in faultHalves[h].
func faultHalf(t *testing.T, h int) []FaultCase {
	t.Helper()
	var cases []FaultCase
	for _, c := range faultMatrix(t) {
		if strings.HasPrefix(c.Name, faultHalves[h].prefix) {
			cases = append(cases, c)
		}
	}
	return cases
}

// checkFaultShape checks that FaultMatrix lists its halves in order
// with unique names, and that half h covers its kinds and timings.
func checkFaultShape(t *testing.T, h int) {
	seen := map[string]bool{}
	count, raw := 0, 0
	kinds := map[string]bool{}
	timings := map[string]bool{}
	last := 0
	for _, c := range faultMatrix(t) {
		ch := halfOf(t, c)
		if ch < last {
			t.Fatalf("%s: listed after the %s cases", c.Name, faultHalves[last].prefix)
		}
		last = ch
		if seen[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		if ch != h {
			continue
		}
		count++
		kinds[c.Kind] = true
		timings[c.Timing] = true
		if c.Recover == strings.HasSuffix(c.Name, "/raw") {
			t.Fatalf("%s: Recover flag inconsistent with the name", c.Name)
		}
		if !c.Recover {
			raw++
		}
		// A fail-stop case crashes ranks, a link-fault case wounds the
		// fabric; neither does both.
		kills, faults := c.Faults(0)
		if (len(kills) > 0) != (h == 0) || (len(faults) > 0) != (h == 1) {
			t.Fatalf("%s: %d kills and %d link faults", c.Name, len(kills), len(faults))
		}
		if (c.ExpectClean || c.ExpectRepair != "" || c.ExpectPartition) && c.Timing != LFBefore {
			t.Fatalf("%s: outcome pin on a non-deterministic timing", c.Name)
		}
	}
	half := faultHalves[h]
	if count < half.min {
		t.Errorf("%s cases: %d, want at least %d", half.prefix, count, half.min)
	}
	if raw == 0 {
		t.Errorf("%s cases: no raw error-surface case", half.prefix)
	}
	for _, k := range half.kinds {
		if !kinds[k] {
			t.Errorf("%s cases lack kind %q", half.prefix, k)
		}
	}
	for _, k := range half.timings {
		if !timings[k] {
			t.Errorf("%s cases lack timing %q", half.prefix, k)
		}
	}
}

func TestFailStopMatrixShape(t *testing.T) { checkFaultShape(t, 0) }

func TestLinkFaultMatrixShape(t *testing.T) { checkFaultShape(t, 1) }

// checkFaultJitter: each case's schedule is a pure function of (case,
// seed), periodic in the seed, and never negative — a negative seed once
// jittered triggers and fault times below zero.
func checkFaultJitter(t *testing.T, cases []FaultCase) {
	for _, c := range cases {
		for seed := int64(-8); seed < 8; seed++ {
			k1, f1 := c.Faults(seed)
			k2, f2 := c.Faults(seed)
			k3, f3 := c.Faults(seed + 4)
			if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(f1, f2) {
				t.Fatalf("%s seed %d: schedule not deterministic", c.Name, seed)
			}
			if !reflect.DeepEqual(k1, k3) || !reflect.DeepEqual(f1, f3) {
				t.Fatalf("%s seed %d: schedule differs from seed %d's", c.Name, seed, seed+4)
			}
			for _, k := range k1 {
				if k.AfterOps < 0 {
					t.Fatalf("%s seed %d: kill %+v before the first operation", c.Name, seed, k)
				}
			}
			for _, f := range f1 {
				if f.At < 0 {
					t.Fatalf("%s seed %d: link fault %v before time 0", c.Name, seed, f)
				}
			}
		}
	}
}

// checkJitterMoves: the seed really moves the first mid-schedule case's
// fault time, as at reads it.
func checkJitterMoves(t *testing.T, cases []FaultCase, what string, pick func(FaultCase) bool, at func(FaultCase, int64) float64) {
	for _, c := range cases {
		if pick(c) {
			if at(c, 0) == at(c, 3) {
				t.Errorf("%s: seed jitter does not move the mid-schedule %s", c.Name, what)
			}
			return
		}
	}
	t.Errorf("no mid-schedule %s case", what)
}

func TestFailStopKillsJitterDeterministic(t *testing.T) {
	cases := faultHalf(t, 0)
	checkFaultJitter(t, cases)
	checkJitterMoves(t, cases, "kill", func(c FaultCase) bool { return c.Kind == KindMid }, func(c FaultCase, seed int64) float64 {
		kills, _ := c.Faults(seed)
		return float64(kills[0].AfterOps)
	})
}

// TestLinkFaultScheduleJitterDeterministic also checks that an explicit
// Kills list replaces the derived kills and keeps the link faults.
func TestLinkFaultScheduleJitterDeterministic(t *testing.T) {
	cases := faultHalf(t, 1)
	checkFaultJitter(t, cases)
	checkJitterMoves(t, cases, "link fault", func(c FaultCase) bool { return c.Timing == LFMid }, func(c FaultCase, seed int64) float64 {
		_, faults := c.Faults(seed)
		return faults[0].At
	})

	c := cases[len(cases)-1]
	c.Kills = []mpirt.Kill{{Rank: 1, AfterOps: 2}}
	kills, faults := c.Faults(5)
	if _, want := cases[len(cases)-1].Faults(5); !reflect.DeepEqual(kills, c.Kills) || !reflect.DeepEqual(faults, want) {
		t.Fatalf("%s with Kills %v: got kills %v, faults %v", c.Name, c.Kills, kills, faults)
	}
}

// runFaultsOn runs half h once under plain scheduling on eng.
func runFaultsOn(t *testing.T, h int, eng mpirt.Engine) {
	for _, f := range Sweep(faultHalf(t, h), []int64{1}, On(eng), nil) {
		t.Errorf("%s", f)
	}
}

func TestFailStopThreaded(t *testing.T) { runFaultsOn(t, 0, mpirt.EngineThreaded) }

func TestFailStopEvent(t *testing.T) { runFaultsOn(t, 0, mpirt.EngineEvent) }

func TestLinkFaultThreaded(t *testing.T) { runFaultsOn(t, 1, mpirt.EngineThreaded) }

func TestLinkFaultEvent(t *testing.T) { runFaultsOn(t, 1, mpirt.EngineEvent) }

// sweepFaultChaos sweeps half h under adversarial chaos schedules (more
// seeds in the make faults sweep; a couple here keep the test fast).
func sweepFaultChaos(t *testing.T, h int) {
	for _, f := range Sweep(faultHalf(t, h), []int64{1, 2}, UnderChaos(mpirt.DefaultChaos), nil) {
		t.Errorf("%s", f)
	}
}

func TestFailStopChaos(t *testing.T) { sweepFaultChaos(t, 0) }

func TestLinkFaultChaos(t *testing.T) { sweepFaultChaos(t, 1) }

// checkFaultDifferential: half h reaches the same outcomes on both
// engines, and under chaos its kills, fail-notifies, link detections,
// virtual times and detection totals replay exactly.
func checkFaultDifferential(t *testing.T, h int) {
	cases := faultHalf(t, h)
	for _, f := range Sweep(cases, []int64{1, 5}, Diff, nil) {
		t.Errorf("plain: %s", f)
	}
	for _, f := range Sweep(cases, []int64{1, diffTestSeeds[0]}, replayExact(mpirt.DefaultChaos), nil) {
		t.Errorf("chaos: %s", f)
	}
}

func TestFailStopDifferential(t *testing.T) { checkFaultDifferential(t, 0) }

func TestLinkFaultDifferential(t *testing.T) { checkFaultDifferential(t, 1) }

// checkFaultReplay pins record/replay determinism with injected faults:
// recording the same (case, seed) twice yields identical schedules,
// including the kill and link-fault detection decisions, and a forced
// replay of the recorded schedule passes.
func checkFaultReplay(t *testing.T, h int) {
	half := faultHalves[h]
	var picked []FaultCase
	for _, c := range faultHalf(t, h) {
		if half.replay(c) {
			picked = append(picked, c)
		}
	}
	if len(picked) < 6 {
		t.Fatalf("%s: only %d replay cases picked", half.prefix, len(picked))
	}
	for _, c := range picked[:6] {
		const seed = 3
		record := func(replay *trace.Schedule) *trace.Schedule {
			t.Helper()
			ch := mpirt.DefaultChaos(seed)
			s := trace.NewSchedule()
			ch.Record, ch.Replay = s, replay
			if _, err := c.Run(mpirt.EngineDefault, seed, ch); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			return s
		}
		s1, s2 := record(nil), record(nil)
		if s1.Hash() != s2.Hash() {
			t.Fatalf("%s: same seed produced different schedules (%x vs %x)", c.Name, s1.Hash(), s2.Hash())
		}
		if half.detects(c) && s1.CountKind(half.kind) == 0 {
			t.Fatalf("%s: recorded schedule has no %v decision", c.Name, half.kind)
		}
		record(s1)
	}
}

func TestFailStopChaosReplay(t *testing.T) { checkFaultReplay(t, 0) }

func TestLinkFaultChaosReplay(t *testing.T) { checkFaultReplay(t, 1) }
