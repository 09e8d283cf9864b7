package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer enforces schedule determinism in the packages
// whose behaviour must replay bit-exactly under a fixed seed: no global
// (unseeded) math/rand, and no map iteration whose order can reach a
// send, a receive, or the ordering of a plan or schedule. Host-clock
// reads are vtclean's, whose scope covers these packages. The chaos
// scheduler's replay guarantee — same seed, same interleaving, same
// virtual clocks — holds only if every rank's operation sequence is a
// pure function of its inputs; one map range feeding a send breaks it
// silently and unreproducibly.
var DeterminismAnalyzer = &Analyzer{
	Name:       "determinism",
	Doc:        "flags global math/rand and order-bearing map iteration in schedule-deterministic packages",
	Directives: []string{"ordered"},
	Run:        runDeterminism,
}

// determinismScope lists the package path elements whose code must be
// schedule-deterministic.
var determinismScope = []string{
	"internal/collective",
	"internal/pattern",
	"internal/mpirt",
	"internal/vgraph",
	"internal/conformance",
	"internal/planverify",
}

func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if pathContains(path, s) {
			return true
		}
	}
	return false
}

// globalRandAllowed lists math/rand package-level functions that
// construct seeded generators — the deterministic way in.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(p *Pass) {
	if !inScope(p.Pkg.Path, determinismScope) {
		return
	}
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			f := calleeOf(p, n)
			if path := funcPkgPath(f); (path == "math/rand" || path == "math/rand/v2") &&
				f.Type().(*types.Signature).Recv() == nil && !globalRandAllowed[f.Name()] {
				p.Report(n.Pos(), "global rand.%s: use a seeded *rand.Rand so runs replay bit-exactly", f.Name())
			}
		case *ast.RangeStmt:
			checkMapRange(p, n)
		}
		return true
	})
}

// checkMapRange flags a range over a map whose body makes the iteration
// order observable: a runtime point-to-point call, or an append onto a
// variable that outlives the loop. Indexed writes keyed by the range
// key are order-independent and stay unflagged.
func checkMapRange(p *Pass, rng *ast.RangeStmt) {
	tv, ok := p.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isMpirtComm(calleeOf(p, n)) {
				p.Report(rng.Pos(), "map iteration order reaches a runtime send/recv: iterate order.SortedKeys instead")
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(p, call, "append") || i >= len(n.Lhs) {
					continue
				}
				if escapesRange(p, n.Lhs[i], rng) {
					p.Report(rng.Pos(), "map iteration order reaches an append that outlives the loop: iterate order.SortedKeys instead")
					return false
				}
			}
		}
		return true
	})
}

// escapesRange reports whether the append target outlives the range
// statement: a selector or index expression (backing store defined
// elsewhere), or an identifier declared outside the range body.
func escapesRange(p *Pass, lhs ast.Expr, rng *ast.RangeStmt) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := p.Pkg.Info.Defs[lhs]
		if obj == nil {
			obj = p.Pkg.Info.Uses[lhs]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}
