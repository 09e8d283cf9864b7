package conformance

import (
	"fmt"
	"strings"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/trace"
)

func TestLinkFaultMatrixShape(t *testing.T) {
	cases, err := LinkFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 60 {
		t.Fatalf("link-fault family has %d cases, want at least 60", len(cases))
	}
	seen := map[string]bool{}
	faults := map[string]bool{}
	timings := map[string]bool{}
	raw := 0
	for _, c := range cases {
		if seen[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		faults[c.Fault] = true
		timings[c.Timing] = true
		if !c.Recover {
			raw++
		}
		if len(LinkFaultSchedule(c, 0)) == 0 {
			t.Fatalf("%s: empty fault schedule", c.Name)
		}
		if (c.ExpectClean || c.ExpectRepair != "" || c.ExpectPartition) && c.Timing != LFBefore {
			t.Fatalf("%s: outcome pin on a non-deterministic timing", c.Name)
		}
	}
	for _, k := range []string{LFNicDown, LFPortDown, LFUplinkDown, LFPartition, LFPartitionOK, LFNicDeg, LFUplinkDeg, LFMixed} {
		if !faults[k] {
			t.Fatalf("link-fault family lacks fault kind %q", k)
		}
	}
	for _, k := range []string{LFBefore, LFMid} {
		if !timings[k] {
			t.Fatalf("link-fault family lacks timing %q", k)
		}
	}
	if raw == 0 {
		t.Fatal("link-fault family has no raw error-surface cases")
	}
}

func TestLinkFaultScheduleJitterDeterministic(t *testing.T) {
	cases, err := LinkFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	var mid LinkFaultCase
	for _, c := range cases {
		if c.Timing == LFMid && mid.Name == "" {
			mid = c
		}
		for seed := int64(0); seed < 8; seed++ {
			a := LinkFaultSchedule(c, seed)
			b := LinkFaultSchedule(c, seed)
			if len(a) != len(b) {
				t.Fatalf("%s: schedule not deterministic", c.Name)
			}
			for i := range a {
				if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
					t.Fatalf("%s seed %d fault %d differs: %+v vs %+v", c.Name, seed, i, a[i], b[i])
				}
			}
		}
	}
	if mid.Name == "" {
		t.Fatal("no mid-timing case found")
	}
	if LinkFaultSchedule(mid, 0)[0].At == LinkFaultSchedule(mid, 3)[0].At {
		t.Fatal("seed jitter does not move the mid-schedule fault")
	}
}

// TestLinkFaultThreaded runs the whole family once under threaded
// scheduling.
func TestLinkFaultThreaded(t *testing.T) {
	cases, err := LinkFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if _, err := c.Run(mpirt.EngineThreaded, 1, nil); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestLinkFaultEvent runs the whole family once on the event engine.
func TestLinkFaultEvent(t *testing.T) {
	cases, err := LinkFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if _, err := c.Run(mpirt.EngineEvent, 1, nil); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestLinkFaultChaos sweeps the family under adversarial chaos
// schedules (more seeds in the make faults sweep; a couple here keep
// the test fast).
func TestLinkFaultChaos(t *testing.T) {
	cases, err := LinkFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	failures := Sweep(cases, []int64{1, 2}, UnderChaos(mpirt.DefaultChaos), nil)
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestLinkFaultDifferential runs the family across both engines at
// outcome level, and under chaos demands exactly replayable schedules,
// virtual times and link-detection totals.
func TestLinkFaultDifferential(t *testing.T) {
	cases, err := LinkFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Sweep(cases, []int64{1}, Diff, nil) {
		t.Errorf("plain: %s", f)
	}
	for _, f := range Sweep(cases, []int64{1}, replayExact(mpirt.DefaultChaos), nil) {
		t.Errorf("chaos: %s", f)
	}
}

// TestLinkFaultChaosReplay pins record/replay determinism with link
// faults: recording the same (case, seed) twice yields identical
// schedules including the link-fault detection decisions, and a forced
// replay of the recorded schedule passes.
func TestLinkFaultChaosReplay(t *testing.T) {
	cases, err := LinkFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	var picked []LinkFaultCase
	for _, c := range cases {
		if c.Timing == LFBefore && c.Recover && !c.ExpectClean &&
			(strings.Contains(c.Name, LFNicDown) || strings.Contains(c.Name, LFPartition)) {
			picked = append(picked, c)
		}
	}
	if len(picked) < 6 {
		t.Fatalf("only %d replay cases picked", len(picked))
	}
	for _, c := range picked[:6] {
		const seed = 3
		s1, s2 := trace.NewSchedule(), trace.NewSchedule()
		ch1 := mpirt.DefaultChaos(seed)
		ch1.Record = s1
		if _, err := c.Run(mpirt.EngineDefault, seed, ch1); err != nil {
			t.Fatalf("%s record 1: %v", c.Name, err)
		}
		ch2 := mpirt.DefaultChaos(seed)
		ch2.Record = s2
		if _, err := c.Run(mpirt.EngineDefault, seed, ch2); err != nil {
			t.Fatalf("%s record 2: %v", c.Name, err)
		}
		if s1.Hash() != s2.Hash() {
			t.Fatalf("%s: same seed produced different schedules (%x vs %x)", c.Name, s1.Hash(), s2.Hash())
		}
		// Partition cases cross the cut on the first attempt, so their
		// schedules must record the detection; nicdown cases may route
		// around the dead NIC without ever observing it.
		if strings.Contains(c.Name, LFPartition) && s1.CountKind(trace.DecisionLinkFault) == 0 {
			t.Fatalf("%s: recorded schedule has no link-fault decision", c.Name)
		}
		ch3 := mpirt.DefaultChaos(seed)
		ch3.Replay = s1
		if _, err := c.Run(mpirt.EngineDefault, seed, ch3); err != nil {
			t.Fatalf("%s replay: %v", c.Name, err)
		}
	}
}
