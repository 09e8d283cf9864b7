package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TagDisciplineAnalyzer keeps raw integer literals out of message-tag
// positions. Tags are protocol structure: two call sites that happen to
// pick the same number cross-match silently, and the fail-stop epoch
// shifting assumes every static tag fits the registry's reserved
// blocks. All tags therefore come from internal/tags (the registry may
// of course define them with literals), possibly offset by variables —
// `tags.DHStep + t` is fine, `100 + t` is not. Two packages are exempt:
// the registry itself, and internal/mpirt, which owns the runtime's
// reserved internal tags and applies registered shifts.
var TagDisciplineAnalyzer = &Analyzer{
	Name: "tagdiscipline",
	Doc:  "flags integer literals in message-tag argument positions outside the tag registry",
	Run:  runTagDiscipline,
}

func runTagDiscipline(p *Pass) {
	if pathHasSuffix(p.Pkg.Path, "internal/tags") || pathHasSuffix(p.Pkg.Path, "internal/mpirt") {
		return
	}
	// A variable passed as the tag is followed to every value the package
	// gives it (`t := 10000 + step*4`, `var t = …`, a later `t = …`): a
	// literal in any of them is a raw tag too.
	defs := map[types.Object][]ast.Expr{}
	p.inspect(func(n ast.Node) bool {
		var names, vals []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			names, vals = n.Lhs, n.Rhs
		case *ast.ValueSpec:
			for _, id := range n.Names {
				names = append(names, id)
			}
			vals = n.Values
		}
		for i, l := range names {
			if id, ok := l.(*ast.Ident); ok && len(vals) == len(names) {
				defs[p.Pkg.Info.ObjectOf(id)] = append(defs[p.Pkg.Info.ObjectOf(id)], vals[i])
			}
		}
		return true
	})
	p.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(p, call)
		tagIdx := -1
		switch {
		case isMpirtComm(f):
			tagIdx = 1 // (peer, tag, ...)
		case f != nil && f.Name() == "Sub" && pathContains(funcPkgPath(f), "internal/mpirt"):
			tagIdx = 1 // (comm, tagShift)
		}
		if tagIdx < 0 || tagIdx >= len(call.Args) {
			return true
		}
		if lit := findIntLiteral(call.Args[tagIdx]); lit != nil {
			p.Report(lit.Pos(), "integer literal %s in tag position: use a constant from internal/tags", lit.Value)
		} else if id, ok := ast.Unparen(call.Args[tagIdx]).(*ast.Ident); ok {
			for _, rhs := range defs[p.Pkg.Info.ObjectOf(id)] {
				if lit := findIntLiteral(rhs); lit != nil {
					p.Report(id.Pos(), "integer literal %s in tag position (assigned to %s): use a constant from internal/tags", lit.Value, id.Name)
					break
				}
			}
		}
		return true
	})
}

// findIntLiteral returns the first integer literal inside the tag
// expression, without descending into nested call arguments: a helper
// call like tags.FTShift(epoch, 0) is an opaque registry value whose
// own arguments are the helper's business.
func findIntLiteral(e ast.Expr) *ast.BasicLit {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if e.Kind == token.INT {
			return e
		}
	case *ast.BinaryExpr:
		if lit := findIntLiteral(e.X); lit != nil {
			return lit
		}
		return findIntLiteral(e.Y)
	case *ast.UnaryExpr:
		return findIntLiteral(e.X)
	}
	return nil
}
