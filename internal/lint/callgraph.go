package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the interprocedural view the whole-program analyzers
// run on: a static call graph over every type-checked package of a run,
// with one node per declared function or method. Function literals are
// folded into their enclosing declaration (their calls and allocations
// belong to the function that evaluates them), direct calls and method
// calls on concrete receivers resolve to a single callee, interface
// method calls expand to every module type implementing the interface
// (class-hierarchy analysis), and calls through plain function values
// are recorded as dynamic — unresolvable, handled conservatively by
// each analyzer's policy. summary.go computes the per-node facts.

// CallSite is one resolved call edge out of a function.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func // static callee; may be external (no body in the run)
	Node   *FuncNode   // non-nil when the callee's body is in the run
	// Iface marks an edge added by interface dispatch: Node is one
	// *possible* implementation, not a proven target.
	Iface bool
}

// FuncNode is one declared function or method of the loaded packages.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists resolved call edges in source order; DynCalls the
	// positions of calls through function values (callee unknowable).
	Calls    []CallSite
	DynCalls []token.Pos

	// Hotpath marks a //lint:hotpath root: this function and everything
	// it transitively calls must be allocation-free. AllocOK marks a
	// function-level //lint:allocok — a reviewed cold region the hot
	// traversal does not descend into. dirLine records the directive's
	// line so the stale-suppression audit can be told when it earned
	// its keep.
	Hotpath bool
	AllocOK bool
	dirFile string
	dirLine int

	// BlockOK marks a function-level //lint:blockok — a reviewed
	// engine park point: the enginesafe traversal neither roots at nor
	// descends into it, the exact analogue of a function-level allocok
	// for the hot-path contract. blockFile/blockLine record the
	// directive's own position (separate from dirFile/dirLine: a
	// declaration may carry both an allocok and a blockok) so the
	// stale audit can tell when the prune earned its keep.
	BlockOK   bool
	blockFile string
	blockLine int

	Summary Summary
}

// name renders a compact human name: "Send" for functions,
// "Proc.Send" for methods.
func (n *FuncNode) name() string { return funcDisplayName(n.Fn) }

func funcDisplayName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return f.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + f.Name()
	}
	return f.Name()
}

// Program is the whole-run interprocedural view shared by every pass.
type Program struct {
	Funcs []*FuncNode // deterministic declaration order
	byObj map[*types.Func]*FuncNode

	// named lists the run's declared non-interface named types, in
	// declaration order, for interface dispatch.
	named []*types.Named

	// dirIdx caches each package's //lint: directive index; the summary
	// scan consults it to keep reviewed sites out of the transitive
	// bits, and RunAnalyzers reuses it for suppression.
	dirIdx map[*Package]map[string]map[int][]string

	// hot is the //lint:hotpath closure: function → shortest call chain
	// from a root (nil chain for roots themselves). pruned collects the
	// function-level //lint:allocok nodes the traversal stopped at.
	hot    map[*FuncNode][]*FuncNode
	pruned map[*FuncNode]bool

	// engine is the event-engine reachability closure for enginesafe,
	// same shape as hot. enginePruned collects the function-level
	// //lint:blockok nodes the traversal stopped at — the reviewed
	// park-point functions — so their directives can be audited like
	// allocok prunes.
	engine       map[*FuncNode][]*FuncNode
	enginePruned map[*FuncNode]bool
}

// NodeOf returns the node for f, or nil when f's body is not in the run.
func (prog *Program) NodeOf(f *types.Func) *FuncNode {
	if f == nil {
		return nil
	}
	return prog.byObj[f]
}

// calleeNode returns the call-graph node of call's static callee, when
// the callee's body is part of this run.
func calleeNode(p *Pass, call *ast.CallExpr) *FuncNode {
	if p.Prog == nil {
		return nil
	}
	return p.Prog.NodeOf(calleeOf(p, call))
}

// buildProgram constructs the call graph and summaries for one run.
func buildProgram(pkgs []*Package) *Program {
	prog := &Program{
		byObj:  map[*types.Func]*FuncNode{},
		dirIdx: map[*Package]map[string]map[int][]string{},
	}
	for _, pkg := range pkgs {
		idx := directiveIndex(pkg)
		prog.dirIdx[pkg] = idx
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				prog.addNamed(pkg, decl)
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: obj, Decl: fd, Pkg: pkg}
				node.readDirectives(idx)
				prog.Funcs = append(prog.Funcs, node)
				prog.byObj[obj] = node
			}
		}
	}
	for _, node := range prog.Funcs {
		prog.collectCalls(node)
	}
	prog.computeSummaries()
	prog.hot, prog.pruned = prog.reachableFrom(
		func(n *FuncNode) bool { return n.Hotpath },
		nil,
		func(n *FuncNode) bool { return n.AllocOK },
		prog.reviewedDispatch)
	// A function-level //lint:blockok excludes its function from the
	// engine closure entirely: it neither roots the traversal (every
	// function of an algorithm package is otherwise a root) nor admits
	// descent — it IS a reviewed park point, wholesale.
	prog.engine, prog.enginePruned = prog.reachableFrom(
		func(n *FuncNode) bool { return isEngineRoot(n) && !n.BlockOK },
		isEngineBoundary,
		func(n *FuncNode) bool { return n.BlockOK },
		nil)
	return prog
}

// reviewedDispatch reports whether cs is an interface-dispatched call
// carrying a site-level //lint:allocok: a reviewed dynamic boundary of
// the hot-path contract, like the same directive on a call through a
// function value. Class-hierarchy analysis would otherwise charge every
// implementation in the run to the caller's root — the event loop's
// Stepper.Step call is the case: what a rank body does per pass is not
// the loop's per-event path, and its per-message path has roots of its
// own (RecvStep, SendSnapshot).
func (prog *Program) reviewedDispatch(n *FuncNode, cs CallSite) bool {
	return cs.Iface && siteReviewed(prog.dirIdx[n.Pkg], n.Pkg.Fset, cs.Call.Pos(), "allocok")
}

// readDirectives picks up function-level //lint: markers from the
// declaration line or the line above it (the end of the doc comment) —
// the same two-line window statement suppressions use.
func (n *FuncNode) readDirectives(idx map[string]map[int][]string) {
	pos := n.Pkg.Fset.Position(n.Decl.Pos())
	lines := idx[pos.Filename]
	if lines == nil {
		return
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, word := range lines[line] {
			switch word {
			case "hotpath":
				n.Hotpath, n.dirFile, n.dirLine = true, pos.Filename, line
			case "allocok":
				n.AllocOK, n.dirFile, n.dirLine = true, pos.Filename, line
			case "blockok":
				n.BlockOK, n.blockFile, n.blockLine = true, pos.Filename, line
			}
		}
	}
}

// collectCalls walks node's body (function literals included) and
// records every call edge. Subtrees that are arguments of panic(...) are
// skipped throughout the interprocedural layer: code that runs only
// while constructing a panic value is cold by construction.
func (prog *Program) collectCalls(node *FuncNode) {
	mini := &Pass{Pkg: node.Pkg} // helper view; only Pkg.Info is used
	inspectSkippingPanicArgs(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		prog.resolveCall(mini, node, call)
		return true
	})
}

// inspectSkippingPanicArgs is ast.Inspect minus the argument lists of
// builtin panic calls.
func inspectSkippingPanicArgs(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				// Visit the call itself but not its arguments. (A
				// shadowed local named panic would be skipped too — the
				// runtime has none, and the miss is conservative only
				// for code that runs while dying.)
				fn(n)
				return false
			}
		}
		return fn(n)
	})
}

// resolveCall classifies one call expression and appends the resulting
// edges to node.
func (prog *Program) resolveCall(mini *Pass, node *FuncNode, call *ast.CallExpr) {
	info := node.Pkg.Info
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: resolve through the index expression.
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			node.addEdge(call, obj, prog.byObj[obj], false)
		case *types.Builtin, *types.TypeName:
			// Builtins are modelled as allocation/blocking facts, not
			// call edges; conversions are value operations.
		default:
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return
			}
			node.DynCalls = append(node.DynCalls, call.Pos())
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				// Calling a func-typed field: dynamic.
				node.DynCalls = append(node.DynCalls, call.Pos())
				return
			}
			if types.IsInterface(sel.Recv()) {
				prog.addIfaceEdges(node, call, f, sel.Recv())
				return
			}
			node.addEdge(call, f, prog.byObj[f], false)
			return
		}
		// Package-qualified: pkg.Fn or a conversion pkg.Type(x).
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			node.addEdge(call, obj, prog.byObj[obj], false)
		case *types.TypeName:
		default:
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return
			}
			node.DynCalls = append(node.DynCalls, call.Pos())
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already folded into
		// this node by the enclosing walk.
	default:
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return
		}
		node.DynCalls = append(node.DynCalls, call.Pos())
	}
}

func (n *FuncNode) addEdge(call *ast.CallExpr, f *types.Func, target *FuncNode, iface bool) {
	n.Calls = append(n.Calls, CallSite{Call: call, Callee: f, Node: target, Iface: iface})
}

// addNamed records the non-generic, non-interface named types decl
// declares.
func (prog *Program) addNamed(pkg *Package, decl ast.Decl) {
	gd, ok := decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.TYPE {
		return
	}
	for _, spec := range gd.Specs {
		tn, ok := pkg.Info.Defs[spec.(*ast.TypeSpec).Name].(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if t, ok := tn.Type().(*types.Named); ok && !types.IsInterface(t) && t.TypeParams().Len() == 0 {
			prog.named = append(prog.named, t)
		}
	}
}

// addIfaceEdges expands an interface method call to the method every
// named type of the run that implements the interface resolves it to —
// class-hierarchy analysis over method sets, so a method promoted from
// an embedded struct is a target like a declared one. When no
// implementation is in the run the call degrades to the interface
// method itself as an external callee (intrinsics still apply, e.g. the
// fixture stubs' Endpoint).
func (prog *Program) addIfaceEdges(node *FuncNode, call *ast.CallExpr, f *types.Func, recv types.Type) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		node.addEdge(call, f, nil, false)
		return
	}
	found := false
	for _, t := range prog.named {
		var impl types.Type = t
		if !types.Implements(impl, iface) {
			if impl = types.NewPointer(t); !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, f.Pkg(), f.Name())
		fn, _ := obj.(*types.Func)
		m := prog.NodeOf(fn)
		if m == nil || node.callsVia(call, m) {
			continue // external, or promoted to an earlier type too
		}
		node.addEdge(call, m.Fn, m, true)
		found = true
	}
	if !found {
		node.addEdge(call, f, nil, true)
	}
}

// callsVia reports whether call already has an edge to m.
func (n *FuncNode) callsVia(call *ast.CallExpr, m *FuncNode) bool {
	for i := len(n.Calls) - 1; i >= 0 && n.Calls[i].Call == call; i-- {
		if n.Calls[i].Node == m {
			return true
		}
	}
	return false
}

// reachableFrom computes the closure of functions reachable from the
// nodes satisfying isRoot, stopping at nodes satisfying cut (nil for no
// boundary). For each member it records the shortest call chain from
// its root, inclusive of both ends (a root's chain is just itself); BFS
// over declaration order keeps chains and traversal deterministic. The
// traversal does not descend into nodes satisfying prune (nil for no
// pruning) — the reviewed regions of the respective contract, e.g.
// function-level //lint:allocok for the hot path — and returns the set
// it stopped at. Call edges satisfying skip (nil for none) are not
// followed at all.
func (prog *Program) reachableFrom(isRoot func(*FuncNode) bool, cut func(*FuncNode) bool, prune func(*FuncNode) bool, skip func(*FuncNode, CallSite) bool) (map[*FuncNode][]*FuncNode, map[*FuncNode]bool) {
	closure := map[*FuncNode][]*FuncNode{}
	pruned := map[*FuncNode]bool{}
	var queue []*FuncNode
	for _, n := range prog.Funcs {
		if isRoot(n) {
			closure[n] = []*FuncNode{n}
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, cs := range n.Calls {
			t := cs.Node
			if t == nil || (skip != nil && skip(n, cs)) {
				continue
			}
			if cut != nil && cut(t) {
				continue
			}
			if prune != nil && prune(t) {
				pruned[t] = true
				continue
			}
			if _, seen := closure[t]; seen {
				continue
			}
			chain := make([]*FuncNode, 0, len(closure[n])+1)
			chain = append(chain, closure[n]...)
			chain = append(chain, t)
			closure[t] = chain
			queue = append(queue, t)
		}
	}
	return closure, pruned
}

// chainString renders a closure chain for a finding message:
// "Send → sendErr → helper".
func chainString(chain []*FuncNode) string {
	s := ""
	for i, n := range chain {
		if i > 0 {
			s += " → "
		}
		s += n.name()
	}
	return s
}

// hotChain returns, for a hot function, the rendered path from its
// root annotation; ok is false when n is not on the hot closure.
func (prog *Program) hotChain(n *FuncNode) (string, bool) {
	chain, ok := prog.hot[n]
	if !ok {
		return "", false
	}
	return chainString(chain), true
}

// engineChain is hotChain for the event-engine closure.
func (prog *Program) engineChain(n *FuncNode) (string, bool) {
	chain, ok := prog.engine[n]
	if !ok {
		return "", false
	}
	return chainString(chain), true
}

// isEngineRoot marks the functions whose bodies run inside the event
// engine: all algorithm code in the collective and pattern packages
// (rank bodies must run unmodified on either engine), the engine's own
// drivers in mpirt, and — wherever it is declared — every mpirt.Stepper
// implementation's Step, which the loop calls directly.
func isEngineRoot(n *FuncNode) bool {
	path := n.Pkg.Path
	if pathContains(path, "internal/collective") || pathContains(path, "internal/pattern") {
		return true
	}
	if pathContains(path, "internal/mpirt") {
		switch n.Fn.Name() {
		case "loop", "rankMain":
			return true
		}
	}
	return isStepperStep(n.Fn)
}

// isStepperStep matches the method mpirt.Stepper declares:
// Step(*mpirt.Proc) bool on any receiver.
func isStepperStep(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || f.Name() != "Step" || sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Proc" && named.Obj().Pkg() != nil &&
		pathContains(named.Obj().Pkg().Path(), "internal/mpirt") &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}

// isEngineBoundary cuts the engine traversal at the runtime's host-side
// entries: mpirt.Run and RunSteppers (and the engine loops they spawn)
// run on the host thread and block legitimately — awaitRanks, the
// watchdog, the serial drivers' host goroutine. Driver helpers living
// in algorithm packages (e.g. pattern.BuildDistributed) call Run;
// everything past that boundary is host-side, not rank code.
func isEngineBoundary(n *FuncNode) bool {
	name := n.Fn.Name()
	return pathContains(n.Pkg.Path, "internal/mpirt") && (name == "Run" || name == "RunSteppers") &&
		n.Decl.Recv == nil
}
