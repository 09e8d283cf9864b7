package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// BufferPoolAnalyzer keeps buffer recycling centralized. The runtime's
// pool file (internal/mpirt/pool.go) is the module's single sync.Pool
// site: its contracts — a payload is an immutable snapshot, its holders
// counted, Data capacity-capped at Size; a rank-buffer slab's contents
// are stale, written before they are read — are what make recycling
// invisible to determinism and to the race detector. An ad-hoc
// sync.Pool elsewhere reintroduces exactly the aliasing and lifetime
// hazards those contracts rule out, without any analyzer understanding
// its ownership story. New pooling needs must route through mpirt (or
// claim a reviewed //lint:ignore bufferpool).
var BufferPoolAnalyzer = &Analyzer{
	Name: "bufferpool",
	Doc:  "flags sync.Pool use outside the runtime's pools (internal/mpirt/pool.go: payload buffers, Msg containers, rank-buffer slabs)",
	Run:  runBufferPool,
}

func runBufferPool(p *Pass) {
	p.inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Pool" {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := p.Pkg.Info.Uses[ident].(*types.PkgName)
		if !ok || pkgName.Imported().Path() != "sync" {
			return true
		}
		pos := p.Pkg.Fset.Position(sel.Pos())
		if pathContains(p.Pkg.Path, "internal/mpirt") && filepath.Base(pos.Filename) == "pool.go" {
			return true
		}
		p.Report(sel.Pos(), "sync.Pool outside the runtime payload pool: buffer recycling lives in internal/mpirt/pool.go behind Msg.Release, whose ownership contract keeps reuse invisible to determinism; pool through mpirt instead")
		return true
	})
}
