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
// sweep, a fail-stop sweep, and one fail-stop case under an ad-hoc
// kill schedule.
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

// TestRunLinkFaultsSweep sweeps the link-fault family over one seed —
// the CI link-fault acceptance run at reduced depth.
func TestRunLinkFaultsSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-linkfaults", "-seeds", "1"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS:") {
		t.Errorf("link-fault sweep did not report PASS:\n%s", out.String())
	}
}

// TestRunLinkFaultsList pins the -linkfaults case-name grammar.
func TestRunLinkFaultsList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-linkfaults", "-list"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "linkfault/cn/nicdown/before") {
		t.Errorf("link-fault listing missing expected name:\n%s", out.String())
	}
}

// TestRunLinkFaultsReplay pins record → re-run → force-replay for a
// link-fault case whose schedule records detection decisions.
func TestRunLinkFaultsReplay(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-linkfaults", "-case", "linkfault/dh/partition/before", "-replay", "3", "-dump"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replay exact") {
		t.Errorf("replay did not report exactness:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "link-fault") {
		t.Errorf("-dump shows no link-fault decision:\n%s", out.String())
	}
}

// TestRunLinkFaultsEngineBoth runs one link-fault case differentially.
func TestRunLinkFaultsEngineBoth(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-linkfaults", "-engine", "both", "-case", "linkfault/cn/uplinkdown/before", "-seeds", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "link-fault sweep threaded vs event") || !strings.Contains(out.String(), "PASS:") {
		t.Errorf("differential sweep did not compare the engines:\n%s", out.String())
	}
}

// TestRunLinkFaultsExclusiveWithFaults pins the mode exclusivity.
func TestRunLinkFaultsExclusiveWithFaults(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-linkfaults", "-faults"}, &out); err == nil {
		t.Fatal("-linkfaults with -faults accepted")
	}
}
