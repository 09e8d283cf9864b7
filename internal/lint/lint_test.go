package lint

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the `// want "regex" ["regex" ...]` section of a
// fixture line; wantArgRe splits it into the individual patterns.
var (
	wantRe    = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)
	wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

// expectation is one `// want` comment: a finding the analyzer must
// produce at that file and line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

func loadExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	var exps []expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, a := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(a[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, i+1, a[1], err)
				}
				exps = append(exps, expectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return exps
}

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := LoadDir(filepath.Join("testdata", "src"), "nbrallgather")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func findPkg(t *testing.T, pkgs []*Package, path string) *Package {
	t.Helper()
	for _, p := range pkgs {
		if p.Path == path {
			return p
		}
	}
	t.Fatalf("fixture package %s not loaded", path)
	return nil
}

func findAnalyzer(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %s", name)
	return nil
}

// TestGolden checks every bad-fixture package against its `// want`
// comments: each expected finding must appear at its line, and no
// unexpected findings may appear.
func TestGolden(t *testing.T) {
	pkgs := loadFixtures(t)
	cases := []struct {
		pkg      string
		analyzer string
	}{
		{"nbrallgather/internal/collective/determbad", "determinism"},
		{"nbrallgather/internal/collective/errbad", "errdiscipline"},
		{"nbrallgather/internal/collective/tagbad", "tagdiscipline"},
		{"nbrallgather/internal/vtbad", "vtclean"},
		{"nbrallgather/internal/collective/deadlockshapebad", "deadlockshape"},
		{"nbrallgather/internal/collective/poolbad", "bufferpool"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			pkg := findPkg(t, pkgs, tc.pkg)
			a := findAnalyzer(t, tc.analyzer)
			diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
			if len(diags) == 0 {
				t.Fatalf("bad fixture %s produced no %s findings", tc.pkg, tc.analyzer)
			}
			exps := loadExpectations(t, pkg.Dir)
			if len(exps) == 0 {
				t.Fatalf("fixture %s has no want comments", tc.pkg)
			}
			matched := make([]bool, len(exps))
			for _, d := range diags {
				found := false
				for i, exp := range exps {
					if matched[i] || d.Pos.Line != exp.line || !sameFile(d.Pos.Filename, exp.file) {
						continue
					}
					if exp.re.MatchString(d.Message) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for i, exp := range exps {
				if !matched[i] {
					t.Errorf("%s:%d: expected finding matching %q, got none", exp.file, exp.line, exp.re)
				}
			}
		})
	}
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	if err1 != nil || err2 != nil {
		return filepath.Base(a) == filepath.Base(b)
	}
	return aa == bb
}

// TestCleanFixture runs the full suite over the negative fixture and
// the stub support packages: zero findings allowed.
func TestCleanFixture(t *testing.T) {
	pkgs := loadFixtures(t)
	for _, path := range []string{
		"nbrallgather/internal/collective/clean",
		"nbrallgather/internal/mpirt",
		"nbrallgather/internal/tags",
	} {
		pkg := findPkg(t, pkgs, path)
		if diags := RunAnalyzers([]*Package{pkg}, Analyzers()); len(diags) != 0 {
			for _, d := range diags {
				t.Errorf("clean fixture %s: %s", path, d)
			}
		}
	}
}

// TestModuleClean runs the full suite over the real module: the tree
// must stay lint-clean (the same gate `make lint` enforces).
func TestModuleClean(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers(pkgs, Analyzers()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("%s", d)
		}
		t.Fatalf("module has %d lint findings", len(diags))
	}
}

// TestStaleDirectives pins the stale-suppression check: a full-suite
// run flags the directive that suppresses nothing, spares the one that
// fires, and a subset run stays silent (it cannot tell stale from
// not-exercised).
func TestStaleDirectives(t *testing.T) {
	pkgs := loadFixtures(t)
	pkg := findPkg(t, pkgs, "nbrallgather/internal/collective/stalebad")
	diags := RunAnalyzers([]*Package{pkg}, Analyzers())
	if len(diags) != 1 {
		t.Fatalf("full suite: want exactly 1 finding, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != StaleDirectiveName {
		t.Errorf("finding attributed to %q, want %q", d.Analyzer, StaleDirectiveName)
	}
	if !strings.Contains(d.Message, "//lint:ordered") {
		t.Errorf("finding %q does not name the stale directive", d.Message)
	}
	if subset := RunAnalyzers([]*Package{pkg}, []*Analyzer{DeterminismAnalyzer}); len(subset) != 0 {
		t.Errorf("subset run must not judge staleness, got %v", subset)
	}
}

// TestDirectiveParsing pins the suppression grammar: trailing and
// preceding-line directives, with and without justifications.
func TestDirectiveParsing(t *testing.T) {
	pkgs := loadFixtures(t)
	pkg := findPkg(t, pkgs, "nbrallgather/internal/collective/determbad")
	idx := directiveIndex(pkg)
	found := false
	for _, lines := range idx {
		for _, words := range lines {
			for _, w := range words {
				if w == "ordered" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("determbad fixture should carry an ordered directive")
	}
}

// TestFindingsDeterministic pins byte-identical output across two
// independent loads: parse, type-check, analyze and sort must be
// order-stable.
func TestFindingsDeterministic(t *testing.T) {
	render := func() string {
		out := ""
		for _, d := range RunAnalyzers(loadFixtures(t), Analyzers()) {
			out += fmt.Sprintln(d)
		}
		return out
	}
	if a, b := render(), render(); a != b {
		t.Errorf("two runs differ:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestDiagnosticString pins the canonical rendering.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "determinism", Message: "boom"}
	d.Pos.Filename = "x/y.go"
	d.Pos.Line = 12
	if got, want := d.String(), "x/y.go:12: [determinism] boom"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

// TestPathHelpers pins the import-path matchers the analyzers scope by.
func TestPathHelpers(t *testing.T) {
	for _, tc := range []struct {
		path, elem string
		contains   bool
	}{
		{"nbrallgather/internal/mpirt", "internal/mpirt", true},
		{"nbrallgather/internal/mpirtx", "internal/mpirt", false},
		{"nbrallgather/internal/collective/determbad", "internal/collective", true},
		{"nbrallgather/cmd/nbr-lint", "cmd", true},
		{"nbrallgather/command", "cmd", false},
	} {
		if got := pathContains(tc.path, tc.elem); got != tc.contains {
			t.Errorf("pathContains(%q, %q) = %v, want %v", tc.path, tc.elem, got, tc.contains)
		}
	}
	if fmt.Sprintf("%v", pathHasSuffix("a/b/c", "b/c")) != "true" {
		t.Error("pathHasSuffix failed on a/b/c, b/c")
	}
}

// TestRuntimeNamesExist pins the analyzers' name tables to the runtime
// they match by string: every name in them is a method of the real
// mpirt.Proc or mpirt.Endpoint, and every exported method of the
// fixture stub's Proc and SubProc exists on the real type with the same
// parameter and result types. Deleting or renaming a runtime method
// fails here instead of silently disarming a rule.
func TestRuntimeNamesExist(t *testing.T) {
	module, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	real := findPkg(t, module, "nbrallgather/internal/mpirt").Types.Scope()
	stub := findPkg(t, loadFixtures(t), "nbrallgather/internal/mpirt").Types.Scope()
	// methods maps every exported method of the named type (through a
	// pointer receiver when it is concrete) to its parameter and result
	// types, names dropped.
	methods := func(scope *types.Scope, name string) map[string]string {
		typ := scope.Lookup(name).Type()
		if !types.IsInterface(typ) {
			typ = types.NewPointer(typ)
		}
		out := map[string]string{}
		for ms, i := types.NewMethodSet(typ), 0; i < ms.Len(); i++ {
			f := ms.At(i).Obj()
			if !f.Exported() {
				continue
			}
			sig := f.Type().(*types.Signature)
			shape := fmt.Sprintf("variadic=%v", sig.Variadic())
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				shape += " ("
				for j := 0; j < tuple.Len(); j++ {
					shape += types.TypeString(tuple.At(j).Type(), (*types.Package).Name) + ","
				}
				shape += ")"
			}
			out[f.Name()] = shape
		}
		return out
	}
	proc, endpoint := methods(real, "Proc"), methods(real, "Endpoint")
	for table, names := range map[string]map[string]bool{
		"commMethods": commMethods, "collectiveMethods": collectiveMethods,
		"blockingSends": blockingSends, "blockingRecvs": blockingRecvs,
		"isRankCall": {"Rank": true},
	} {
		for name := range names {
			if proc[name] == "" && endpoint[name] == "" {
				t.Errorf("%s names %s, which neither mpirt.Proc nor mpirt.Endpoint has", table, name)
			}
		}
	}
	for _, typ := range []string{"Proc", "SubProc"} {
		have := methods(real, typ)
		for name, shape := range methods(stub, typ) {
			if have[name] != shape {
				t.Errorf("stub %s.%s is %s, the runtime's is %q", typ, name, shape, have[name])
			}
		}
	}
}
