package lint

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves a call expression's static callee, looking through
// parentheses. It returns nil for calls through function values whose
// declaration the type info does not pin down (indirect calls), builtin
// calls, and type conversions.
func calleeOf(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Pkg.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Fn): resolved through Uses.
		if f, ok := p.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// funcPkgPath returns the import path of the package declaring f, or ""
// for builtins and universe functions.
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// commMethods are the runtime's point-to-point operations whose
// invocation order is part of the modelled schedule. The tag parameter
// sits at argument index 1 for all of them.
var commMethods = map[string]bool{
	"Send":         true,
	"SendSnapshot": true,
	"Recv":         true,
	"RecvStep":     true,
	"Probe":        true,
	"SendErr":      true,
	"RecvErr":      true,
}

// isMpirtComm reports whether f is one of the runtime's point-to-point
// operations (on Proc, SubProc, or the Endpoint interface).
func isMpirtComm(f *types.Func) bool {
	return f != nil && commMethods[f.Name()] && pathContains(funcPkgPath(f), "internal/mpirt")
}

// isErrorType reports whether t is exactly the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// lastResultIsError reports whether f has error as its last result.
func lastResultIsError(f *types.Func) bool {
	res := f.Type().(*types.Signature).Results()
	return res.Len() > 0 && isErrorType(res.At(res.Len()-1).Type())
}
