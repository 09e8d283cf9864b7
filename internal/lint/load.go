package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package of the target module.
type Package struct {
	// Path is the package's import path inside the module.
	Path string
	// Dir is the package's directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// LoadModule parses and type-checks every non-test package under root,
// reading the module path from root's go.mod. Test files, hidden
// directories and testdata trees (golden fixtures) are skipped.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return LoadDir(root, modPath)
}

// One FileSet and stdlib source importer per process — the standard library
// is type-checked once — and one load per (root, module path): read-only.
var (
	fset   = token.NewFileSet()
	loadMu sync.Mutex // guards loads; the source importer is not safe for concurrent use
	std    = importer.ForCompiler(fset, "source", nil)
	loads  = map[[2]string]func() ([]*Package, error){}
)

// LoadDir is LoadModule with an explicit module path, for loading
// fixture trees that mimic the module's import-path layout.
func LoadDir(root, modPath string) ([]*Package, error) {
	loadMu.Lock()
	defer loadMu.Unlock()
	key := [2]string{root, modPath}
	if loads[key] == nil {
		loads[key] = sync.OnceValues(func() ([]*Package, error) { return loadDir(root, modPath) })
	}
	return loads[key]()
}

func loadDir(root, modPath string) ([]*Package, error) {
	parsed := map[string]*rawPkg{} // import path → parsed files
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, perr := parseDir(path)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		parsed[imp] = &rawPkg{path: imp, dir: path, files: files}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return typeCheck(modPath, parsed)
}

type rawPkg struct {
	path, dir string
	files     []*ast.File
}

// parseDir parses the non-test Go files of one directory that the
// default build (this GOOS/GOARCH, no race tag) compiles.
func parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries { // sorted by filename
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// chainImporter resolves module-internal imports from the loader's own
// type-checked results and everything else through the stdlib source
// importer (which needs no export data and works offline).
type chainImporter struct {
	modPath string
	done    map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.done[path]; ok {
		return pkg, nil
	}
	if path == c.modPath || strings.HasPrefix(path, c.modPath+"/") {
		return nil, fmt.Errorf("lint: module package %s not yet type-checked (import cycle or missing directory)", path)
	}
	return std.Import(path)
}

// typeCheck type-checks the parsed packages in dependency order.
func typeCheck(modPath string, parsed map[string]*rawPkg) ([]*Package, error) {
	imp := &chainImporter{modPath: modPath, done: map[string]*types.Package{}}

	// Dependency edges among module packages only.
	deps := map[string][]string{}
	for path, rp := range parsed {
		for _, f := range rp.files {
			for _, spec := range f.Imports {
				target, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := parsed[target]; ok {
					deps[path] = append(deps[path], target)
				}
			}
		}
	}

	var out []*Package
	checked := map[string]bool{}
	var check func(path string, stack []string) error
	check = func(path string, stack []string) error {
		if checked[path] {
			return nil
		}
		for _, s := range stack {
			if s == path {
				return fmt.Errorf("lint: import cycle through %s", path)
			}
		}
		stack = append(stack, path)
		for _, dep := range deps[path] {
			if err := check(dep, stack); err != nil {
				return err
			}
		}
		rp := parsed[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(error) {}, // collect the first hard error below
		}
		tpkg, err := conf.Check(path, fset, rp.files, info)
		if err != nil {
			return fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		imp.done[path] = tpkg
		checked[path] = true
		out = append(out, &Package{Path: path, Dir: rp.dir, Fset: fset, Files: rp.files, Types: tpkg, Info: info})
		return nil
	}

	paths := make([]string, 0, len(parsed))
	for p := range parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := check(p, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
