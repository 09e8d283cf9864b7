package lint

// AllocDisciplineName names the hot-path allocation analyzer.
const AllocDisciplineName = "allocdiscipline"

// AllocDisciplineAnalyzer enforces the hot-path allocation contract:
// a function annotated //lint:hotpath, and everything it transitively
// calls, must be allocation-free. PR 5 measured the P2P path to 0
// allocs/op; this analyzer is the static half of that guarantee — the
// half that catches a helper-function refactor reintroducing a per-op
// allocation before any benchmark runs.
//
// The closure is computed over the whole-run call graph (callgraph.go):
// direct calls and concrete-method calls follow their single callee,
// interface calls follow every in-run implementation, and calls through
// function values are unresolvable — reported as such, because "cannot
// prove" must read as a finding, not as silence. A //lint:allocok on an
// interface call site reviews it as a dynamic boundary the same way: no
// implementation is charged to the caller's root through it. Externals resolve
// through vetted tables (summary.go); anything unvetted is likewise
// reported as unprovable.
//
// Escape hatches, both carrying review weight and audited for
// staleness like every directive:
//
//	//lint:allocok on an allocation site — one reviewed allocation
//	  (amortized growth, pool-miss refill, failure-path diagnostics);
//	//lint:allocok on a function declaration — a reviewed cold region
//	  the traversal does not descend into (error construction, chaos
//	  instrumentation, trace recording).
//
// Allocations inside panic(...) arguments are exempt by construction:
// code that runs only while dying is not hot.
var AllocDisciplineAnalyzer = &Analyzer{
	Name:       AllocDisciplineName,
	Doc:        "flags allocations reachable from //lint:hotpath functions",
	Directives: []string{"allocok"},
	Run:        runAllocDiscipline,
}

func runAllocDiscipline(p *Pass) {
	prog := p.Prog
	if prog == nil {
		return
	}
	for _, n := range prog.Funcs {
		if n.Pkg != p.Pkg {
			continue
		}
		// A hotpath marker is consumed by rooting the closure; a
		// function-level allocok is consumed by pruning the traversal.
		// Unconsumed ones surface through the stale-directive audit.
		if n.Hotpath {
			p.markUsed(n.dirFile, n.dirLine, "hotpath")
		}
		if n.AllocOK && prog.pruned[n] {
			p.markUsed(n.dirFile, n.dirLine, "allocok")
		}
		chain, hot := prog.hotChain(n)
		if !hot {
			continue
		}
		for _, site := range n.Summary.Allocs {
			p.Report(site.Pos, "allocation on hot path (%s) — reachable from //lint:hotpath via %s", site.What, chain)
		}
		for _, site := range n.Summary.ExtUnknown {
			p.Report(site.Pos, "call to %s on hot path: cannot prove allocation-free — reachable from //lint:hotpath via %s", site.What, chain)
		}
		for _, cs := range n.Calls {
			if prog.reviewedDispatch(n, cs) {
				// The boundary's directive earned its keep by cutting
				// the closure here.
				p.suppressed(p.Pkg.Fset.Position(cs.Call.Pos()))
			}
		}
		for _, pos := range n.DynCalls {
			p.Report(pos, "dynamic call on hot path: callee unknown, cannot prove allocation-free — reachable from //lint:hotpath via %s", chain)
		}
	}
}
