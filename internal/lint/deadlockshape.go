package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// DeadlockShapeAnalyzer flags communication shapes that deadlock under
// rendezvous MPI semantics even though this runtime's eager sends let
// them pass:
//
//   - symmetric ordering: both branches of a rank-dependent conditional
//     issue a blocking Send first against the same peer — every rank
//     sends, nobody receives (the classic `if rank < peer` hazard; the
//     correct shape orders Send-before-Recv on one side only);
//   - blocking self-sends: Send to the caller's own rank can never be
//     matched by a concurrent receive on the same rank;
//   - one-sided collectives: a Barrier (or other collective) reachable
//     on only one branch of a rank-dependent conditional — the ranks
//     taking the other branch never arrive.
//
// Rank dependence is a taint closure over values derived from the
// runtime's Rank() (intra-procedural, see rankTaint).
var DeadlockShapeAnalyzer = &Analyzer{
	Name: "deadlockshape",
	Doc:  "flags rank-conditional Send/Recv orderings, self-sends, and one-sided collectives",
	Run:  runDeadlockShape,
}

// collectiveMethods are the runtime calls every live rank must make
// together.
var collectiveMethods = map[string]bool{
	"Barrier":            true,
	"SyncResetTime":      true,
	"SyncResetTimeStep":  true,
	"CollectiveTime":     true,
	"CollectiveTimeStep": true,
	"Agree":              true,
	"Shrink":             true,
}

// blockingSends and blockingRecvs split the point-to-point surface for
// the ordering check.
var blockingSends = map[string]bool{"Send": true, "SendErr": true, "SendSnapshot": true}
var blockingRecvs = map[string]bool{"Recv": true, "RecvErr": true, "RecvStep": true}

func runDeadlockShape(p *Pass) {
	forEachFuncBody(p, func(body *ast.BlockStmt) {
		checkDeadlockShape(p, body)
	})
}

func checkDeadlockShape(p *Pass, body *ast.BlockStmt) {
	taint := rankTaint(p, body)
	pure := pureRankAliases(p, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // literals are analyzed as their own functions
		case *ast.CallExpr:
			checkSelfSend(p, n, pure)
		case *ast.IfStmt:
			if exprMentionsRank(p, taint, n.Cond) {
				checkSymmetricOrder(p, n)
				checkOneSidedCollective(p, n)
			}
		}
		return true
	})
}

// checkSelfSend flags a blocking send whose destination is provably the
// caller's own rank: a literal x.Rank() argument or a variable assigned
// exactly from Rank(). Arithmetic on the rank (peers, masks) must not
// match — only the identity.
func checkSelfSend(p *Pass, call *ast.CallExpr, pure map[types.Object]bool) {
	f := calleeOf(p, call)
	if f == nil || !blockingSends[f.Name()] || !pathContains(funcPkgPath(f), "internal/mpirt") {
		return
	}
	if len(call.Args) < 1 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	self := false
	if c, ok := dst.(*ast.CallExpr); ok && isRankCall(p, c) {
		self = true
	}
	if id, ok := dst.(*ast.Ident); ok {
		if o := objOfIdent(p, id); o != nil && pure[o] {
			self = true
		}
	}
	if self {
		p.Report(call.Pos(), "blocking %s to the caller's own rank: a rank cannot match its own send and deadlocks under rendezvous semantics", f.Name())
	}
}

// commEvent is the first blocking point-to-point call of one branch.
type commEvent struct {
	send bool
	peer string // canonical text of the peer argument
	call *ast.CallExpr
}

// firstBlockingComm returns the first blocking Send/Recv in source
// order within stmt, or nil.
func firstBlockingComm(p *Pass, stmt ast.Stmt) *commEvent {
	if stmt == nil {
		return nil
	}
	var ev *commEvent
	ast.Inspect(stmt, func(n ast.Node) bool {
		if ev != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(p, call)
		if f == nil || !pathContains(funcPkgPath(f), "internal/mpirt") {
			return true
		}
		if blockingSends[f.Name()] || blockingRecvs[f.Name()] {
			if len(call.Args) < 1 {
				return true
			}
			ev = &commEvent{
				send: blockingSends[f.Name()],
				peer: exprText(call.Args[0]),
				call: call,
			}
			return false
		}
		return true
	})
	return ev
}

// checkSymmetricOrder flags a rank-dependent if/else where both
// branches open with a blocking Send against the same peer: whichever
// side a rank takes, it sends first, so under rendezvous semantics all
// ranks block in the send and the matching receives are never reached.
func checkSymmetricOrder(p *Pass, ifs *ast.IfStmt) {
	if ifs.Else == nil {
		return
	}
	then := firstBlockingComm(p, ifs.Body)
	els := firstBlockingComm(p, ifs.Else)
	if then == nil || els == nil || !then.send || !els.send {
		return
	}
	if then.peer == "" || then.peer != els.peer {
		return
	}
	p.Report(ifs.Pos(), "both branches of this rank-dependent conditional issue a blocking Send to %s first: symmetric send-send deadlocks under rendezvous semantics — order Send/Recv by rank instead", then.peer)
}

// countCollectives counts collective calls reachable within stmt.
func countCollectives(p *Pass, stmt ast.Stmt) (int, *ast.CallExpr) {
	if stmt == nil {
		return 0, nil
	}
	n := 0
	var first *ast.CallExpr
	ast.Inspect(stmt, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(p, call)
		if f != nil && collectiveMethods[f.Name()] && pathContains(funcPkgPath(f), "internal/mpirt") {
			if first == nil {
				first = call
			}
			n++
		}
		return true
	})
	return n, first
}

// checkOneSidedCollective flags a collective call reachable on only one
// branch of a rank-dependent conditional.
func checkOneSidedCollective(p *Pass, ifs *ast.IfStmt) {
	thenN, thenCall := countCollectives(p, ifs.Body)
	elseN, elseCall := countCollectives(p, ifs.Else)
	if thenN > 0 && elseN == 0 {
		p.Report(thenCall.Pos(), "collective reachable on only one branch of a rank-dependent conditional: ranks taking the other branch never arrive and the collective deadlocks")
	}
	if elseN > 0 && thenN == 0 {
		p.Report(elseCall.Pos(), "collective reachable on only one branch of a rank-dependent conditional: ranks taking the other branch never arrive and the collective deadlocks")
	}
}

// isRankCall reports whether call invokes the runtime's Rank method.
func isRankCall(p *Pass, call *ast.CallExpr) bool {
	f := calleeOf(p, call)
	return f != nil && f.Name() == "Rank" && pathContains(funcPkgPath(f), "internal/mpirt")
}

// exprMentionsRank reports whether e contains a Rank() call or a
// rank-tainted identifier.
func exprMentionsRank(p *Pass, taint map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isRankCall(p, n) {
				found = true
				return false
			}
		case *ast.Ident:
			if o := p.Pkg.Info.Uses[n]; o != nil && taint[o] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// rankTaint computes the closure of variables whose value derives from
// the calling rank: assigned from an expression containing Rank() or an
// already-tainted variable. Intra-procedural — a rank passed as a
// parameter into a helper is not tracked across the call.
func rankTaint(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	taint := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		add := func(o types.Object) {
			if o != nil && !taint[o] {
				taint[o] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && exprMentionsRank(p, taint, rhs) {
						if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
							add(objOfIdent(p, id))
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) && exprMentionsRank(p, taint, v) {
						add(p.Pkg.Info.Defs[n.Names[i]])
					}
				}
			}
			return true
		})
	}
	return taint
}

// pureRankAliases returns the variables assigned exactly `x.Rank()` —
// their value IS the calling rank, not merely derived from it. Used for
// the self-send check, where arithmetic on the rank must not match.
func pureRankAliases(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isRankCall(p, call) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if o := objOfIdent(p, id); o != nil {
					out[o] = true
				}
			}
		}
		return true
	})
	return out
}

// objOfIdent resolves an identifier to its object via Defs or Uses.
func objOfIdent(p *Pass, id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Defs[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Uses[id]
}

// exprText renders an expression to canonical source text, for
// comparing peer expressions across branches.
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return ""
	}
	return buf.String()
}

// forEachFuncBody applies fn to every function body in the package:
// declared functions, methods, and function literals (each literal is
// analyzed as its own function).
func forEachFuncBody(p *Pass, fn func(*ast.BlockStmt)) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(lit.Body)
				}
				return true
			})
		}
	}
}
