// Package lint is a self-contained static-analysis framework (stdlib
// go/ast + go/parser + go/types only — no golang.org/x/tools) that
// enforces the runtime's cross-cutting invariants with eight analyzers:
//
//   - determinism: no wall-clock, global math/rand, or map-iteration
//     order reaching sends, receives, tags, or plan ordering in the
//     schedule-deterministic packages (bit-exact chaos replay depends
//     on it);
//   - errdiscipline: module error returns are not silently discarded,
//     and typed failures are matched with errors.As, never by string;
//   - tagdiscipline: message tags come from the internal/tags registry,
//     not scattered integer literals;
//   - vtclean: virtual-time packages never consult the host clock;
//   - deadlockshape: no rank-conditional Send/Recv ordering, self-send
//     or one-sided collective in a hand-written rank body;
//   - bufferpool: sync.Pool lives only in the runtime's pool file;
//   - allocdiscipline, enginesafe: nothing reachable from a
//     //lint:hotpath function allocates, nothing reachable from
//     event-engine rank code blocks the host.
//
// Findings are suppressed by a `//lint:<directive>` comment on the
// offending line or the line directly above it:
//
//	//lint:ordered      — iteration order is normalised (e.g. sorted)
//	//lint:wallclock    — deliberate host-clock use (reporting, watchdog)
//	//lint:ignore NAME  — silence analyzer NAME at this site
//
// Directives carry review weight: each one asserts the invariant holds
// for a reason the analyzer cannot see, and the comment should say why.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
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
	// Prog is the whole-run interprocedural view (call graph and
	// per-function summaries over every package of the run), shared by
	// all passes. Nil only for hand-built passes in unit tests.
	Prog     *Program
	diags    *[]Diagnostic
	suppress map[string]map[int][]string // filename → line → directive words
	// used records which directives actually suppressed a finding,
	// shared by every pass over the package so a full-suite run can
	// report the stale ones. Keyed filename → line → directive word.
	used map[string]map[int]map[string]bool
}

func (p *Pass) markUsed(filename string, line int, word string) {
	if p.used == nil {
		return
	}
	if p.used[filename] == nil {
		p.used[filename] = map[int]map[string]bool{}
	}
	if p.used[filename][line] == nil {
		p.used[filename][line] = map[string]bool{}
	}
	p.used[filename][line][word] = true
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
			if word == "ignore "+p.Analyzer.Name {
				p.markUsed(pos.Filename, line, word)
				return true
			}
			for _, d := range p.Analyzer.Directives {
				if word == d {
					p.markUsed(pos.Filename, line, word)
					return true
				}
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
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:") {
					continue
				}
				word := strings.TrimPrefix(text, "lint:")
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
		AllocDisciplineAnalyzer,
		EngineSafeAnalyzer,
	}
}

// coversFullSuite reports whether the run includes every registered
// analyzer — the precondition for judging a suppression stale.
func coversFullSuite(analyzers []*Analyzer) bool {
	have := map[string]bool{}
	for _, a := range analyzers {
		have[a.Name] = true
	}
	for _, a := range Analyzers() {
		if !have[a.Name] {
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
func reportStaleDirectives(idx map[string]map[int][]string, used map[string]map[int]map[string]bool, diags *[]Diagnostic) {
	for filename, lines := range idx {
		for line, words := range lines {
			for _, word := range words {
				if used[filename][line][word] {
					continue
				}
				pos := token.Position{Filename: filename, Line: line}
				*diags = append(*diags, Diagnostic{
					Pos:      pos,
					Analyzer: StaleDirectiveName,
					Message:  fmt.Sprintf("//lint:%s suppresses no finding — remove the stale directive", word),
				})
			}
		}
	}
}

// RunAnalyzers applies the given analyzers to every package and returns
// all findings sorted by file, line, then analyzer. A run covering the
// full suite additionally reports stale suppression directives (a
// subset run cannot tell stale from not-exercised).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	full := coversFullSuite(analyzers)
	// The interprocedural view spans every package of the run: a
	// //lint:hotpath root in mpirt pulls callees anywhere in the module
	// into its closure, and summaries cross package boundaries.
	prog := buildProgram(pkgs)
	for _, pkg := range pkgs {
		idx := prog.dirIdx[pkg]
		used := map[string]map[int]map[string]bool{}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, diags: &diags, suppress: idx, used: used}
			a.Run(pass)
		}
		if full {
			reportStaleDirectives(idx, used, &diags)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
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
