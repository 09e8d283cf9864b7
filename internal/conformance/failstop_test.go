package conformance

import (
	"strings"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/trace"
)

func TestFailStopMatrixShape(t *testing.T) {
	cases, err := FailStopMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 30 {
		t.Fatalf("fail-stop family has %d cases, want at least 30", len(cases))
	}
	seen := map[string]bool{}
	kinds := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		kinds[c.Kind] = true
		if c.Recover == (c.Kind == KindRaw) {
			t.Fatalf("%s: Recover flag inconsistent with kind", c.Name)
		}
		if len(FailStopKills(c, 0)) == 0 {
			t.Fatalf("%s: no kill schedule", c.Name)
		}
	}
	for _, k := range []string{KindPre, KindMid, KindAgent, KindLeader, KindMulti, KindRaw} {
		if !kinds[k] {
			t.Fatalf("fail-stop family lacks kind %q", k)
		}
	}
}

func TestFailStopKillsJitterDeterministic(t *testing.T) {
	cases, err := FailStopMatrix()
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	for seed := int64(0); seed < 8; seed++ {
		a := FailStopKills(c, seed)
		b := FailStopKills(c, seed)
		if len(a) != len(b) {
			t.Fatal("kill schedule not deterministic")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d kill %d differs: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
	}
	// Seeds within one jitter period must actually move the trigger.
	mid := FailStopCase{}
	for _, c := range cases {
		if c.Kind == KindMid {
			mid = c
			break
		}
	}
	if FailStopKills(mid, 0)[0].AfterOps == FailStopKills(mid, 3)[0].AfterOps {
		t.Fatal("seed jitter does not move the mid-schedule kill")
	}
}

// TestFailStopThreaded runs the whole family once under threaded
// scheduling.
func TestFailStopThreaded(t *testing.T) {
	cases, err := FailStopMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if _, err := c.Run(mpirt.EngineThreaded, 1, nil); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestFailStopChaos sweeps the family under adversarial chaos
// schedules (more seeds in the make faults sweep; a couple here keep
// the test fast).
func TestFailStopChaos(t *testing.T) {
	cases, err := FailStopMatrix()
	if err != nil {
		t.Fatal(err)
	}
	failures := Sweep(cases, []int64{1, 2}, UnderChaos(mpirt.DefaultChaos), nil)
	for _, f := range failures {
		t.Errorf("%s", f)
	}
}

// TestFailStopChaosReplay pins record/replay determinism with kills:
// recording the same (case, seed) twice yields identical schedules
// including the kill and fail-notify decisions, and a forced replay of
// the recorded schedule passes.
func TestFailStopChaosReplay(t *testing.T) {
	cases, err := FailStopMatrix()
	if err != nil {
		t.Fatal(err)
	}
	var picked []FailStopCase
	for _, c := range cases {
		if strings.Contains(c.Name, "er35") && (c.Kind == KindMid || c.Kind == KindMulti || c.Kind == KindRaw) {
			picked = append(picked, c)
		}
	}
	if len(picked) == 0 {
		t.Fatal("no replay cases picked")
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
		if s1.CountKind(trace.DecisionKill) == 0 {
			t.Fatalf("%s: recorded schedule has no kill decision", c.Name)
		}
		ch3 := mpirt.DefaultChaos(seed)
		ch3.Replay = s1
		if _, err := c.Run(mpirt.EngineDefault, seed, ch3); err != nil {
			t.Fatalf("%s replay: %v", c.Name, err)
		}
	}
}
