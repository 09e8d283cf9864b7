package conformance

import (
	"strings"
	"testing"

	"nbrallgather/internal/mpirt"
)

func TestMatrixDeterministic(t *testing.T) {
	a, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("matrix sizes %d vs %d", len(a), len(b))
	}
	seen := make(map[string]bool, len(a))
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("case %d name differs between calls: %q vs %q", i, a[i].Name, b[i].Name)
		}
		if seen[a[i].Name] {
			t.Fatalf("duplicate case name %q", a[i].Name)
		}
		seen[a[i].Name] = true
	}
	// Every collective kind and algorithm must appear.
	for _, want := range []string{CollAllgather, CollAllgatherv, CollAlltoall, CollAlltoallv, CollPersistent, CollPattern} {
		found := false
		for _, c := range a {
			if c.Coll == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("matrix lacks collective %q", want)
		}
	}
	for _, want := range []string{"naive", "cn", "dh", "leader"} {
		found := false
		for _, c := range a {
			if c.Algo == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("matrix lacks algorithm %q", want)
		}
	}
}

func TestFindCase(t *testing.T) {
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Find(cases, cases[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != cases[0].Name {
		t.Fatalf("Find returned %q", got.Name)
	}
	if _, err := Find(cases, "no-such-case"); err == nil {
		t.Fatal("unknown case accepted")
	}
}

func TestRunCaseRejectsUnknown(t *testing.T) {
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	bad := cases[0]
	bad.Coll = "reduce-scatter"
	if _, err := bad.Run(mpirt.EngineDefault, 0, nil); err == nil {
		t.Fatal("unknown collective accepted")
	}
	bad = cases[0]
	bad.Coll = CollAlltoall
	bad.Algo = "leader"
	if _, err := bad.Run(mpirt.EngineDefault, 0, nil); err == nil {
		t.Fatal("leader-based alltoall should not exist")
	}
}

// TestRunCaseDetectsBrokenSetup: rank-body panics (here from the
// collective's own argument checking, since the graph does not fit the
// cluster) must surface as RunCase errors, not hangs.
func TestRunCaseDetectsBrokenSetup(t *testing.T) {
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	var a, b Case
	for _, c := range cases {
		if c.Coll != CollAllgather {
			continue
		}
		if a.Name == "" {
			a = c
		} else if c.Graph.N() != a.Graph.N() {
			b = c
			break
		}
	}
	if b.Name == "" {
		t.Skip("matrix has a single communicator size")
	}
	mismatched := a
	mismatched.Graph = b.Graph // 12-rank graph on an 8-rank cluster (or vice versa)
	if _, err := mismatched.Run(mpirt.EngineDefault, 0, mpirt.ScheduleOnly(1)); err == nil {
		t.Fatal("graph/cluster mismatch accepted")
	}
}

func TestFailureReporting(t *testing.T) {
	f := Failure{Case: Case{Name: "x/y/dh/allgather"}, Seed: 42, Err: errTest}
	s := f.String()
	if !strings.Contains(s, "seed=42") || !strings.Contains(s, "x/y/dh/allgather") {
		t.Fatalf("failure string %q lacks seed or case", s)
	}
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "boom" }

// TestSweepPlainScheduler: the matrix also passes with chaos disabled
// entirely (nil Chaos) on the default engine, guarding the harness
// itself against false positives from its ground-truth computation.
func TestSweepPlainScheduler(t *testing.T) {
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Sweep(cases, []int64{0}, On(mpirt.EngineDefault), nil) {
		t.Errorf("under plain scheduling: %s", f)
	}
}

// TestSweepProgress: the progress callback fires once per seed with a
// cumulative failure count.
func TestSweepProgress(t *testing.T) {
	cases, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	Sweep(cases[:2], []int64{1, 2, 3}, UnderChaos(mpirt.ScheduleOnly), func(done, failures int) {
		calls = append(calls, done)
		if failures != 0 {
			t.Fatalf("unexpected failures: %d", failures)
		}
	})
	if len(calls) != 3 || calls[2] != 3 {
		t.Fatalf("progress calls %v", calls)
	}
}
