// Package lint is a self-contained static-analysis framework (stdlib
// go/ast + go/parser + go/types only — no golang.org/x/tools) that
// enforces the runtime's cross-cutting invariants with six analyzers,
// each a walk over one package's syntax and types:
//
//   - determinism: no global math/rand, and no map-iteration order
//     reaching sends, receives, or appends that outlive the loop in the
//     schedule-deterministic packages (bit-exact chaos replay depends
//     on it);
//   - errdiscipline: module error returns are not silently discarded,
//     and typed failures are matched with errors.As, never by string;
//   - tagdiscipline: message tags come from the internal/tags registry,
//     not scattered integer literals;
//   - vtclean: virtual-time packages never consult the host clock;
//   - deadlockshape: no rank-conditional Send/Recv ordering, self-send
//     or one-sided collective in a hand-written rank body;
//   - bufferpool: sync.Pool lives only in the runtime's pool file.
//
// The runtime's dynamic contracts have dynamic gates, not analyzers:
// TestHotPathsZeroAlloc holds every hot root to 0 allocs/op, and a
// rank body that blocks the host fails its conformance case at the
// case's wall limit (DESIGN.md §8 has the audit that moved them).
//
// Findings are suppressed by a `//lint:<directive>` comment on the
// offending line or the line directly above it:
//
//	//lint:ordered      — iteration order is normalised (e.g. sorted)
//	//lint:wallclock    — deliberate host-clock use (reporting, wall limit)
//	//lint:ignore NAME  — silence analyzer NAME at this site
//
// Directives carry review weight: each one asserts the invariant holds
// for a reason the analyzer cannot see, and the comment should say why.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: [analyzer] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	// Directives lists the suppression words (beyond "ignore Name")
	// that silence this analyzer's findings.
	Directives []string
	Run        func(*Pass)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
	suppress map[string]map[int][]string // filename → line → directive words
	// used records which directives actually suppressed a finding,
	// shared by every pass over the package so a full-suite run can
	// report the stale ones.
	used map[directive]bool
}

// directive is one //lint: word at one line.
type directive struct {
	file string
	line int
	word string
}

// Report records a finding at pos unless a suppression directive
// covers it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.suppress[pos.Filename]
	if lines == nil {
		return false
	}
	// A directive suppresses its own line (trailing comment) and the
	// line below it (standalone comment above the statement).
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, word := range lines[line] {
			if word == "ignore "+p.Analyzer.Name || slices.Contains(p.Analyzer.Directives, word) {
				p.used[directive{pos.Filename, line, word}] = true
				return true
			}
		}
	}
	return false
}

// directiveIndex extracts //lint: comments from a package's files.
func directiveIndex(pkg *Package) map[string]map[int][]string {
	idx := map[string]map[int][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				word, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "lint:")
				if !ok {
					continue
				}
				// Strip a trailing justification: everything after the
				// directive word (or, for ignore, the analyzer name).
				fields := strings.Fields(word)
				if len(fields) == 0 {
					continue
				}
				directive := fields[0]
				if directive == "ignore" && len(fields) > 1 {
					directive = "ignore " + fields[1]
				}
				pos := pkg.Fset.Position(c.Pos())
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = map[int][]string{}
				}
				idx[pos.Filename][pos.Line] = append(idx[pos.Filename][pos.Line], directive)
			}
		}
	}
	return idx
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		ErrDisciplineAnalyzer,
		TagDisciplineAnalyzer,
		VTCleanAnalyzer,
		DeadlockShapeAnalyzer,
		BufferPoolAnalyzer,
	}
}

// coversFullSuite reports whether the run includes every registered
// analyzer — the precondition for judging a suppression stale.
func coversFullSuite(analyzers []*Analyzer) bool {
	for _, a := range Analyzers() {
		if !slices.Contains(analyzers, a) {
			return false
		}
	}
	return true
}

// StaleDirectiveName is the pseudo-analyzer stale-suppression findings
// are reported under.
const StaleDirectiveName = "staledirective"

// reportStaleDirectives emits a finding for every //lint: directive
// that suppressed nothing across a full-suite run — a suppression that
// outlived the finding it justified is review debt and must go.
func reportStaleDirectives(idx map[string]map[int][]string, used map[directive]bool, diags *[]Diagnostic) {
	for filename, lines := range idx {
		for line, words := range lines {
			for _, word := range words {
				if used[directive{filename, line, word}] {
					continue
				}
				*diags = append(*diags, Diagnostic{
					Pos:      token.Position{Filename: filename, Line: line},
					Analyzer: StaleDirectiveName,
					Message:  fmt.Sprintf("//lint:%s suppresses no finding — remove the stale directive", word),
				})
			}
		}
	}
}

// RunAnalyzers applies the given analyzers to every package and returns
// all findings sorted by file, line, analyzer, then message. A run covering the
// full suite additionally reports stale suppression directives (a
// subset run cannot tell stale from not-exercised).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	full := coversFullSuite(analyzers)
	for _, pkg := range pkgs {
		idx := directiveIndex(pkg)
		used := map[directive]bool{}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags, suppress: idx, used: used}
			a.Run(pass)
		}
		if full {
			reportStaleDirectives(idx, used, &diags)
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
	return diags
}

// inspect walks every non-test file of the pass's package.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// pathHasSuffix reports whether the package import path ends with
// suffix at a path element boundary.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pathContains reports whether elem occurs in the import path at
// element boundaries (e.g. "internal/mpirt" inside
// "nbrallgather/internal/mpirt").
func pathContains(path, elem string) bool {
	return pathHasSuffix(path, elem) || strings.Contains(path, "/"+elem+"/") ||
		strings.HasPrefix(path, elem+"/")
}
