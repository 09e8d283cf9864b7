package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/trace"
)

// TestRunList prints the conformance matrix; the case names double as
// the -case argument grammar, so pin a representative one.
func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2n2s3l/er35/dh/allgather") {
		t.Errorf("case listing missing expected name:\n%s", out.String())
	}
}

// TestRunSweepSmoke sweeps the whole matrix over two seeds — the CI
// acceptance run at reduced depth.
func TestRunSweepSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seeds", "2"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS:") {
		t.Errorf("sweep did not report PASS:\n%s", out.String())
	}
}

// TestRunReplay pins the record → re-run → force-replay contract for
// one case from the command line, including the -dump schedule print.
func TestRunReplay(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-case", "2n2s3l/er35/dh/allgather", "-replay", "3", "-dump"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replay exact") {
		t.Errorf("replay did not report exactness:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "deliver") {
		t.Errorf("-dump printed no decisions:\n%s", out.String())
	}
}

func TestRunUnknownCase(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-case", "no/such/case"}, &out); err == nil {
		t.Fatal("unknown case accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestReplayTriplePrintsDeadlockCycle pins the reproduced-hang report:
// when a replayed seed fails with a DeadlockError, the tool prints the
// full wait-for cycle and confirms the forced replay reproduced the
// identical cycle.
func TestReplayTriplePrintsDeadlockCycle(t *testing.T) {
	derr := &mpirt.DeadlockError{
		Cycle: []mpirt.WaitEdge{
			{Rank: 0, Op: "recv", Peer: 1, Tag: 7},
			{Rank: 1, Op: "recv", Peer: 0, Tag: 7},
		},
		VT: 3,
	}
	runOnce := func(replayFrom *trace.Schedule) (*trace.Schedule, error) {
		return trace.NewSchedule(), derr
	}
	var out bytes.Buffer
	if err := replayTriple(&out, "fake-case", 1, runOnce, false); err != nil {
		t.Fatalf("replayTriple: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"FAIL (reproduced)",
		"wait-for cycle (vt 3)",
		"rank 0 --recv(tag 7)--> rank 1",
		"rank 1 --recv(tag 7)--> rank 0",
		"replay reproduced the identical cycle",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestReplayTripleRejectsDivergentCycle pins the failure mode: a forced
// replay that deadlocks on a different cycle is a determinism bug.
func TestReplayTripleRejectsDivergentCycle(t *testing.T) {
	calls := 0
	runOnce := func(replayFrom *trace.Schedule) (*trace.Schedule, error) {
		calls++
		cycle := []mpirt.WaitEdge{
			{Rank: 0, Op: "recv", Peer: 1, Tag: 7},
			{Rank: 1, Op: "recv", Peer: 0, Tag: 7},
		}
		if calls == 3 { // the forced replay sees a different peer
			cycle = []mpirt.WaitEdge{
				{Rank: 0, Op: "recv", Peer: 2, Tag: 7},
				{Rank: 2, Op: "recv", Peer: 0, Tag: 7},
			}
		}
		return trace.NewSchedule(), &mpirt.DeadlockError{Cycle: cycle, VT: 3}
	}
	var out bytes.Buffer
	err := replayTriple(&out, "fake-case", 1, runOnce, false)
	if err == nil || !strings.Contains(err.Error(), "did not reproduce the deadlock cycle") {
		t.Fatalf("want cycle-divergence error, got %v", err)
	}
}

// TestRunEngineBoth drives the cross-engine differential — plain
// scheduling, threaded vs event — from the command line: a matrix
// sweep, a fault sweep and one fail-stop case under an ad-hoc kill
// schedule.
func TestRunEngineBoth(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "both", "-seeds", "1"},
		{"-faults", "-engine", "both", "-seeds", "1"},
		{"-faults", "-engine", "both", "-seeds", "2", "-case", "failstop/2n2s3l/er35/cn/allgatherv/mid", "-kill", "5@3,1@0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run %v: %v\n%s", args, err, out.String())
		}
		if !strings.Contains(out.String(), "threaded vs event") || !strings.Contains(out.String(), "PASS:") {
			t.Errorf("run %v did not report a differential PASS:\n%s", args, out.String())
		}
	}
}

// TestRunLinkFaultsEngineBoth runs one link-fault case differentially.
func TestRunLinkFaultsEngineBoth(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-faults", "-engine", "both", "-case", "linkfault/cn/uplinkdown/before", "-seeds", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fault sweep threaded vs event") || !strings.Contains(out.String(), "PASS:") {
		t.Errorf("differential sweep did not compare the engines:\n%s", out.String())
	}
}

// TestRunEnginePlain sweeps one case under plain scheduling on each
// engine alone.
func TestRunEnginePlain(t *testing.T) {
	for _, eng := range mpirt.Engines() {
		var out bytes.Buffer
		if err := run([]string{"-engine", string(eng), "-case", "2n2s3l/er35/dh/allgather", "-seeds", "1"}, &out); err != nil {
			t.Fatalf("run on %s: %v\n%s", eng, err, out.String())
		}
		if !strings.Contains(out.String(), "on "+string(eng)) || !strings.Contains(out.String(), "PASS:") {
			t.Errorf("plain sweep on %s did not report PASS:\n%s", eng, out.String())
		}
	}
}

// TestRunEngineRejectsChaosOptions: replay and -schedule-only are chaos
// concepts, and chaos takes no engine.
func TestRunEngineRejectsChaosOptions(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "event", "-case", "2n2s3l/er35/dh/allgather", "-replay", "3"},
		{"-engine", "both", "-replay", "3"},
		{"-engine", "threaded", "-schedule-only", "-seeds", "1"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "chaos options") || strings.Contains(err.Error(), "\n") {
			t.Errorf("run %v: got %v, want the one-line usage error", args, err)
		}
	}
}

func TestRunEngineRejectsUnknown(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-engine", "quantum"}, &out); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestProfilingFlags sweeps one case over one seed with
// -cpuprofile/-memprofile and checks both profiles land on disk
// non-empty.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	err := run([]string{"-case", "2n2s3l/er35/dh/allgather", "-seeds", "1",
		"-cpuprofile", cpu, "-memprofile", mem}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestRunFaultsSweep sweeps the fault family over one seed — the CI
// fault acceptance run at reduced depth.
func TestRunFaultsSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "-seeds", "1"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS: 144 fault runs under chaos") {
		t.Errorf("fault sweep did not report PASS over both halves:\n%s", out.String())
	}
}

// TestRunFaultsList pins the -faults case-name grammar: the fail-stop
// cases, then the link-fault ones.
func TestRunFaultsList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "-list"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	list := out.String()
	fs := strings.Index(list, "failstop/2n2s3l/er35/dh/allgatherv/agent\n")
	lf := strings.Index(list, "linkfault/cn/nicdown/before\n")
	if fs < 0 || lf < fs || strings.LastIndex(list, "failstop/") > strings.Index(list, "linkfault/") {
		t.Errorf("fault listing is not the fail-stop cases, then the link-fault ones:\n%s", list)
	}
}

// TestRunFaultsReplay pins record → re-run → force-replay for a fault
// case of each half: the printed schedule line names the kills of a
// fail-stop case and the link faults of a link-fault case, whose
// schedule records detection decisions.
func TestRunFaultsReplay(t *testing.T) {
	for _, tc := range []struct{ name, schedule, dump string }{
		{"failstop/2n2s3l/er35/dh/allgatherv/agent", ": kill schedule ", "kill"},
		{"linkfault/dh/partition/before", ": fault schedule ", "link-fault"},
	} {
		var out bytes.Buffer
		err := run([]string{"-faults", "-case", tc.name, "-replay", "3", "-dump"}, &out)
		if err != nil {
			t.Fatalf("run %s: %v\n%s", tc.name, err, out.String())
		}
		if !strings.HasPrefix(out.String(), tc.name+tc.schedule) || strings.Count(out.String(), " schedule ") != 2 {
			t.Errorf("replay of %s does not open with its one%sline:\n%s", tc.name, tc.schedule, out.String())
		}
		if !strings.Contains(out.String(), "replay exact") {
			t.Errorf("replay did not report exactness:\n%s", out.String())
		}
		if !strings.Contains(out.String(), tc.dump) {
			t.Errorf("-dump shows no %s decision:\n%s", tc.dump, out.String())
		}
	}
}

// TestRunRejectsNegativeSeedBase: a failing seed's reproduce line is
// -replay N, and -replay takes only non-negative seeds.
func TestRunRejectsNegativeSeedBase(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-faults", "-seed-base", "-3", "-seeds", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-seed-base -3 must be non-negative") {
		t.Fatalf("got %v, want the negative -seed-base rejected", err)
	}
	if out.Len() != 0 {
		t.Errorf("rejected run swept anyway:\n%s", out.String())
	}
}
