package lint

import (
	"go/ast"
)

// VTCleanAnalyzer keeps the host clock out of the virtual-time world.
// Everything the model computes — latencies, clock advances, report
// times — must derive from the simulated clocks so results are machine-
// independent and replayable; host time is legitimate only at the
// edges (CLI drivers, the benchmark harness, the wall-clock limit that
// guards the host process itself — the latter inside the runtime,
// annotated with //lint:wallclock). The rule matters doubly on the serial event
// engine, where a host sleep does not just skew one rank's results but
// blocks the single event loop for every rank: code waiting for
// simulated progress must advance the virtual clock (Proc.Yield), not
// the host one.
var VTCleanAnalyzer = &Analyzer{
	Name:       "vtclean",
	Doc:        "flags host-clock use outside the designated wall-clock packages",
	Directives: []string{"wallclock"},
	Run:        runVTClean,
}

// wallclockAllowed lists path elements of packages permitted to read
// the host clock: process entry points and the harness that times real
// executions of the simulator itself.
var wallclockAllowed = []string{
	"cmd",
	"examples",
	"internal/harness",
	"internal/lint",
}

// hostClockFuncs are the time-package functions that read or schedule
// against the host clock. Duration arithmetic and constants stay legal
// everywhere.
var hostClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func runVTClean(p *Pass) {
	for _, allowed := range wallclockAllowed {
		if pathContains(p.Pkg.Path, allowed) {
			return
		}
	}
	p.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(p, call)
		if f != nil && funcPkgPath(f) == "time" && hostClockFuncs[f.Name()] {
			p.Report(call.Pos(), "time.%s reads the host clock in virtual-time package %s: use the virtual clock, or move the code to a wall-clock package", f.Name(), p.Pkg.Path)
		}
		return true
	})
}
