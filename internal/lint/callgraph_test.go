package lint

import (
	"fmt"
	"testing"
)

// progOver builds the interprocedural program over the fixture tree.
func progOver(t *testing.T) *Program {
	t.Helper()
	return buildProgram(loadFixtures(t))
}

// nodeNamed finds the cgfix function with the given display name.
func nodeNamed(t *testing.T, prog *Program, name string) *FuncNode {
	t.Helper()
	for _, n := range prog.Funcs {
		if n.Pkg.Path == "nbrallgather/internal/cgfix" && n.name() == name {
			return n
		}
	}
	t.Fatalf("no cgfix function named %s", name)
	return nil
}

// TestCallGraphDispatch pins class-hierarchy analysis: a call through
// an interface gets an edge to every implementation in the run, and
// the summary inherits the worst of them.
func TestCallGraphDispatch(t *testing.T) {
	prog := progOver(t)
	chime := nodeNamed(t, prog, "Chime")
	var impls []string
	for _, cs := range chime.Calls {
		if cs.Iface && cs.Node != nil {
			impls = append(impls, cs.Node.name())
		}
	}
	if len(impls) < 2 {
		t.Fatalf("Chime has %d interface-dispatch edges (%v), want both Ring implementations", len(impls), impls)
	}
	if !chime.Summary.Allocates {
		t.Error("Chime must inherit gong.Ring's allocation through the dispatch edge")
	}
}

// TestCallGraphCycle pins fixpoint convergence on mutual recursion:
// both halves of the cycle see the allocation, and building the
// program terminates at all.
func TestCallGraphCycle(t *testing.T) {
	prog := progOver(t)
	if !nodeNamed(t, prog, "Even").Summary.Allocates {
		t.Error("Even must inherit Odd's allocation around the cycle")
	}
	if !nodeNamed(t, prog, "Odd").Summary.Allocates {
		t.Error("Odd allocates directly")
	}
}

// TestCallGraphFuncValue pins conservatism: a call through a func
// value has no static callee, so the summary must assume the worst.
func TestCallGraphFuncValue(t *testing.T) {
	prog := progOver(t)
	ind := nodeNamed(t, prog, "Indirect")
	if len(ind.DynCalls) != 1 {
		t.Fatalf("Indirect records %d dynamic calls, want 1", len(ind.DynCalls))
	}
	if !ind.Summary.Allocates {
		t.Error("a dynamic call must poison the allocation summary")
	}
	if nodeNamed(t, prog, "Clean").Summary.Allocates {
		t.Error("Clean allocates nothing and calls nothing")
	}
}

// TestSummaryFacts pins the remaining per-function fact: host
// blocking.
func TestSummaryFacts(t *testing.T) {
	prog := progOver(t)
	if !nodeNamed(t, prog, "Parks").Summary.MayBlock {
		t.Error("Parks receives from a bare channel: summary must say it may block")
	}
}

// TestFindingsDeterministic pins byte-identical output across two
// independent loads: the whole pipeline — parse, type-check, call
// graph, fixpoint, report — must be order-stable.
func TestFindingsDeterministic(t *testing.T) {
	render := func() string {
		out := ""
		for _, d := range RunAnalyzers(loadFixtures(t), Analyzers()) {
			out += fmt.Sprintln(d)
		}
		return out
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("two runs differ:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}
