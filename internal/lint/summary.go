package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes per-function summaries over the call graph: what a
// function allocates, whether it can block the host thread and whether
// it performs runtime communication. Direct facts come from a single
// body scan; transitive bits close over the call graph with a
// bottom-up fixpoint (monotone boolean facts, so cycles converge).
//
// Externals (functions whose bodies are not in the run) resolve through
// curated tables: a small set is known allocation-free, a small set is
// known blocking, the runtime's own API is intrinsic (so fixture runs
// against the type-compatible stub behave like module runs), and
// anything else is "unknown" — reported by allocdiscipline on hot paths
// as unprovable rather than silently trusted.

// Site is one fact-bearing source position.
type Site struct {
	Pos  token.Pos
	What string
}

// Summary holds one function's interprocedural facts.
type Summary struct {
	// Direct, own-body sites. Reviewed sites (covered by a suppression
	// directive) are kept — Report consumes them so the directive is
	// marked used — but excluded from the transitive bits.
	Allocs     []Site // heap allocations
	ExtUnknown []Site // calls to externals with unknown alloc behaviour
	Blocks     []Site // host-blocking operations

	// Transitive bits, closed over the call graph.
	Allocates    bool // may allocate (unsuppressed sites only)
	MayBlock     bool // may block the host thread (unsuppressed only)
	PerformsComm bool // performs a runtime point-to-point operation

	// direct unsuppressed-fact flags feeding the fixpoint.
	directAlloc bool
	directBlock bool
}

// ---------------------------------------------------------------------
// External tables.

// allocFreePkgs: every function of these packages is allocation-free.
var allocFreePkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allocFreeFuncs: individually vetted allocation-free externals, by
// types.Func.FullName. sync.Pool Get/Put are listed deliberately: the
// pool IS the sanctioned allocation-recycling mechanism the hot path is
// built on (pool misses allocate inside the New callback, which is
// analyzed separately as module code).
var allocFreeFuncs = map[string]bool{
	"runtime.Gosched":           true,
	"errors.Is":                 true,
	"errors.As":                 true,
	"sort.Search":               true,
	"sort.Ints":                 true,
	"time.Since":                true,
	"time.Now":                  true,
	"(*sync.Mutex).Lock":        true,
	"(*sync.Mutex).Unlock":      true,
	"(*sync.Mutex).TryLock":     true,
	"(*sync.RWMutex).Lock":      true,
	"(*sync.RWMutex).Unlock":    true,
	"(*sync.RWMutex).RLock":     true,
	"(*sync.RWMutex).RUnlock":   true,
	"(*sync.Cond).Wait":         true,
	"(*sync.Cond).Signal":       true,
	"(*sync.Cond).Broadcast":    true,
	"(*sync.WaitGroup).Add":     true,
	"(*sync.WaitGroup).Done":    true,
	"(*sync.WaitGroup).Wait":    true,
	"(*sync.Pool).Get":          true,
	"(*sync.Pool).Put":          true,
	"(*sync.Once).Do":           true,
	"(*sync/atomic.Value).Load": true,
}

// blockingFuncs: externals that park or sleep the host thread, by
// FullName. Mutex.Lock is deliberately absent: the runtime's critical
// sections are bounded and lock-ordering is deadlockshape's concern,
// not enginesafe's.
var blockingFuncs = map[string]bool{
	"time.Sleep":             true,
	"time.After":             true,
	"time.Tick":              true,
	"(*sync.Cond).Wait":      true,
	"(*sync.WaitGroup).Wait": true,
}

// blockingPkgs: calling into these packages is host I/O or a syscall.
var blockingPkgs = map[string]bool{
	"os":      true,
	"os/exec": true,
	"net":     true,
	"syscall": true,
}

// isMpirtIntrinsic reports whether the external f is the runtime's own
// API surface (real or fixture stub): intrinsically allocation-clean
// and block-clean from the caller's side, with comm semantics matched
// by name elsewhere. When the runtime's bodies are in the run
// they are analyzed for real and this path is not consulted.
func isMpirtIntrinsic(f *types.Func) bool {
	return pathContains(funcPkgPath(f), "internal/mpirt")
}

type extFacts struct {
	allocFree bool
	blocking  bool
	desc      string
}

// externalFacts classifies a callee with no body in the run.
func externalFacts(f *types.Func) extFacts {
	pkg := funcPkgPath(f)
	full := f.FullName()
	facts := extFacts{desc: full}
	if isMpirtIntrinsic(f) {
		facts.allocFree = true
		return facts
	}
	if allocFreePkgs[pkg] || allocFreeFuncs[full] || pkg == "" {
		facts.allocFree = true
	}
	if blockingFuncs[full] || blockingPkgs[pkg] {
		facts.blocking = true
	}
	return facts
}

// ---------------------------------------------------------------------
// Direct scan.

// computeSummaries fills every node's Summary: direct facts first, then
// the transitive fixpoint.
func (prog *Program) computeSummaries() {
	for _, n := range prog.Funcs {
		prog.scanDirect(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Funcs {
			if prog.propagate(n) {
				changed = true
			}
		}
	}
}

// siteReviewed reports whether a suppression word covers the site's
// line or the line above — the same window Report honours. Used to keep
// reviewed sites out of the transitive bits while still letting Report
// mark the directive used.
func siteReviewed(idx map[string]map[int][]string, fset *token.FileSet, pos token.Pos, words ...string) bool {
	p := fset.Position(pos)
	lines := idx[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, have := range lines[line] {
			for _, want := range words {
				if have == want {
					return true
				}
			}
		}
	}
	return false
}

// scanDirect collects one function's own-body facts.
func (prog *Program) scanDirect(n *FuncNode) {
	s := &n.Summary
	mini := &Pass{Pkg: n.Pkg} // helper view; only Pkg.Info is used
	idx := prog.dirIdx[n.Pkg]
	fset := n.Pkg.Fset

	addAlloc := func(pos token.Pos, what string) {
		s.Allocs = append(s.Allocs, Site{pos, what})
		if !siteReviewed(idx, fset, pos, "allocok", "ignore "+AllocDisciplineName) {
			s.directAlloc = true
		}
	}
	addBlock := func(pos token.Pos, what string) {
		s.Blocks = append(s.Blocks, Site{pos, what})
		if !siteReviewed(idx, fset, pos, "blockok", "ignore "+EngineSafeName) {
			s.directBlock = true
		}
	}

	// &-taken composite literals, claimed so the bare-literal rule does
	// not double-count them.
	addrTaken := map[*ast.CompositeLit]bool{}
	inspectSkippingPanicArgs(n.Decl.Body, func(nd ast.Node) bool {
		if u, ok := nd.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if cl, ok := ast.Unparen(u.X).(*ast.CompositeLit); ok {
				addrTaken[cl] = true
			}
		}
		return true
	})

	// Calls already resolved to module bodies (including interface
	// dispatch with in-run implementations): their facts arrive through
	// the fixpoint, not the external tables.
	resolved := map[*ast.CallExpr]bool{}
	for _, cs := range n.Calls {
		if cs.Node != nil {
			resolved[cs.Call] = true
		}
	}

	// Channel operations that are the comm of a select clause belong to
	// the select's blocking semantics (a select with a default is
	// non-blocking even though its cases are sends/receives).
	selectComm := map[ast.Node]bool{}
	inspectSkippingPanicArgs(n.Decl.Body, func(nd ast.Node) bool {
		sel, ok := nd.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			selectComm[cc.Comm] = true
			ast.Inspect(cc.Comm, func(x ast.Node) bool {
				if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					selectComm[u] = true
				}
				return true
			})
		}
		return true
	})

	inspectSkippingPanicArgs(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			prog.scanCall(mini, n, nd, resolved, addAlloc, addBlock)
		case *ast.GoStmt:
			addAlloc(nd.Pos(), "go statement spawns a goroutine")
		case *ast.FuncLit:
			addAlloc(nd.Pos(), "function literal may capture variables on the heap")
		case *ast.CompositeLit:
			t := typeOfExpr(mini, nd)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				addAlloc(nd.Pos(), "slice literal")
			case *types.Map:
				addAlloc(nd.Pos(), "map literal")
			default:
				if addrTaken[nd] {
					addAlloc(nd.Pos(), "address-taken composite literal")
				}
			}
		case *ast.BinaryExpr:
			if nd.Op == token.ADD && isStringExpr(mini, nd) && !isConstExpr(mini, nd) {
				addAlloc(nd.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if nd.Tok == token.ADD_ASSIGN && len(nd.Lhs) == 1 && isStringExpr(mini, nd.Lhs[0]) {
				addAlloc(nd.Pos(), "string concatenation")
			}
		case *ast.SendStmt:
			if !selectComm[nd] {
				addBlock(nd.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if nd.Op == token.ARROW && !selectComm[nd] {
				addBlock(nd.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(nd) {
				addBlock(nd.Pos(), "select with no default")
			}
		case *ast.RangeStmt:
			if t := typeOfExpr(mini, nd.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					addBlock(nd.Pos(), "range over channel")
				}
			}
		}
		return true
	})
}

// scanCall classifies one call for the direct scan: builtin
// allocations, conversions, comm, boxing at the call boundary, and
// external facts.
func (prog *Program) scanCall(mini *Pass, n *FuncNode, call *ast.CallExpr, resolved map[*ast.CallExpr]bool, addAlloc, addBlock func(token.Pos, string)) {
	info := n.Pkg.Info
	// Builtins.
	switch {
	case isBuiltin(mini, call, "make"):
		addAlloc(call.Pos(), "make")
		return
	case isBuiltin(mini, call, "new"):
		addAlloc(call.Pos(), "new")
		return
	case isBuiltin(mini, call, "append"):
		addAlloc(call.Pos(), "append may grow the backing array")
		return
	}
	// Conversions that copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if convAllocates(mini, tv.Type, call.Args[0]) {
			addAlloc(call.Pos(), "string/byte-slice conversion copies")
		}
		return
	}
	f := calleeOf(mini, call)
	if f == nil {
		return // dynamic: handled via DynCalls
	}
	s := &n.Summary
	if isMpirtComm(f) {
		s.PerformsComm = true
	}
	scanBoxing(mini, call, f, addAlloc)
	if prog.byObj[f] != nil || resolved[call] {
		return // module callee: the fixpoint propagates its facts
	}
	facts := externalFacts(f)
	if facts.blocking {
		addBlock(call.Pos(), "call to "+facts.desc)
	}
	if !facts.allocFree {
		pos := call.Pos()
		s.ExtUnknown = append(s.ExtUnknown, Site{pos, facts.desc})
		if !siteReviewed(prog.dirIdx[n.Pkg], n.Pkg.Fset, pos, "allocok", "ignore "+AllocDisciplineName) {
			s.directAlloc = true
		}
	}
}

// scanBoxing flags concrete values passed to interface parameters — the
// conversion allocates unless the value is pointer-shaped or constant.
func scanBoxing(mini *Pass, call *ast.CallExpr, f *types.Func, addAlloc func(token.Pos, string)) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	for ai, arg := range call.Args {
		if call.Ellipsis.IsValid() && ai == len(call.Args)-1 {
			continue // f(xs...) passes the slice through, no boxing
		}
		pi := paramIndexForArg(sig, ai)
		if pi < 0 {
			continue
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		tv, ok := mini.Pkg.Info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil {
			continue // constants intern into the read-only box cache
		}
		if types.IsInterface(tv.Type) || isUntypedNil(tv.Type) || pointerShaped(tv.Type) {
			continue
		}
		addAlloc(arg.Pos(), fmt.Sprintf("interface boxing of %s argument", tv.Type.String()))
	}
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped: values that fit an interface data word without
// allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer
	}
	return false
}

// paramIndexForArg maps an argument index to the callee parameter it
// binds (variadic tail collapses onto the last parameter).
func paramIndexForArg(sig *types.Signature, ai int) int {
	np := sig.Params().Len()
	if np == 0 {
		return -1
	}
	if ai < np {
		return ai
	}
	if sig.Variadic() {
		return np - 1
	}
	return -1
}

func typeOfExpr(mini *Pass, e ast.Expr) types.Type {
	if tv, ok := mini.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isStringExpr(mini *Pass, e ast.Expr) bool {
	t := typeOfExpr(mini, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(mini *Pass, e ast.Expr) bool {
	tv, ok := mini.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// convAllocates reports whether converting arg to target copies memory:
// string ↔ []byte / []rune.
func convAllocates(mini *Pass, target types.Type, arg ast.Expr) bool {
	at := typeOfExpr(mini, arg)
	if at == nil {
		return false
	}
	return (isStringType(target) && isByteOrRuneSlice(at)) ||
		(isByteOrRuneSlice(target) && isStringType(at))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Fixpoint.

// propagate folds callee facts into n's transitive bits; reports
// whether anything changed.
func (prog *Program) propagate(n *FuncNode) bool {
	s := &n.Summary
	alloc := s.directAlloc || len(n.DynCalls) > 0
	block := s.directBlock
	comm := s.PerformsComm
	for _, cs := range n.Calls {
		if cs.Node != nil {
			t := &cs.Node.Summary
			alloc = alloc || t.Allocates
			block = block || t.MayBlock
			comm = comm || t.PerformsComm
		}
	}
	changed := false
	if alloc && !s.Allocates {
		s.Allocates, changed = true, true
	}
	if block && !s.MayBlock {
		s.MayBlock, changed = true, true
	}
	if comm && !s.PerformsComm {
		s.PerformsComm, changed = true, true
	}
	return changed
}
