package analysis

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
	"strings"
	"sync"
)

// Package is one parsed and type-checked module package.
type Package struct {
	Path  string // import path ("repro", "repro/internal/mpi", ...)
	Dir   string
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// Module is the loaded view of the whole module: every package parsed and
// type-checked, plus the module-wide collective-function index.
type Module struct {
	Fset     *token.FileSet
	Packages []*Package // topological order (dependencies first)

	collective map[*types.Func]bool
}

// mpiCollectives names the communication primitives of internal/mpi that
// are collective: every rank of the world (or, for NeighborAlltoallv, the
// plan topology) must call them in the same order. Point-to-point
// Send/Recv are deliberately absent.
var mpiCollectives = map[string]bool{
	"Barrier":           true,
	"Bcast":             true,
	"Gather":            true,
	"Allgatherv":        true,
	"Alltoallv":         true,
	"AlltoallvFunc":     true,
	"AllreduceSum":      true,
	"AllreduceMax":      true,
	"AllreduceSum1":     true,
	"AllreduceMax1":     true,
	"ExScanSum":         true,
	"NeighborAlltoallv": true,
}

// IsCollective reports whether fn must be issued in the same order on every
// rank: an mpi primitive from the table above, or any module function whose
// doc comment carries the //parhip:collective directive.
func (m *Module) IsCollective(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Name() == "mpi" && mpiCollectives[fn.Name()] {
		return true
	}
	return m.collective[fn]
}

// buildCollectiveIndex scans every package's function docs for the
// //parhip:collective directive.
func (m *Module) buildCollectiveIndex() {
	m.collective = make(map[*types.Func]bool)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !docHas(fd.Doc, "//parhip:collective") {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					m.collective[obj] = true
				}
			}
		}
	}
}

// disableCgo makes go/build (and hence the source importer) resolve the
// standard library in its pure-Go configuration, so type-checking net and
// friends from GOROOT source never needs a C toolchain. build.Default is
// package-global state initialized from the environment before main; the
// mutation is process-wide and idempotent.
var disableCgo = sync.Once{}

// stdImporter returns the shared source-code importer for standard-library
// packages. Source mode parses GOROOT — always shipped with the toolchain —
// so the loader works without pre-compiled export data.
func stdImporter(fset *token.FileSet) types.Importer {
	disableCgo.Do(func() { build.Default.CgoEnabled = false })
	return importer.ForCompiler(fset, "source", nil)
}

// moduleImporter resolves module-local import paths from the packages
// loaded so far and everything else through the stdlib source importer.
type moduleImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.local[path]; ok {
		return p, nil
	}
	return mi.std.Import(path)
}

// LoadModule parses and type-checks every package of the module rooted at
// root (the directory containing go.mod). Test files are excluded: the
// invariants guard production code, and test packages routinely use
// time.Now or raw slices as fixtures.
func LoadModule(root string) (*Module, error) {
	modName, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	parsed := make(map[string]*parsedPkg, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modName
		if rel != "." {
			path = modName + "/" + filepath.ToSlash(rel)
		}
		pp, err := parseDir(fset, dir, path)
		if err != nil {
			return nil, err
		}
		if pp != nil {
			parsed[path] = pp
		}
	}
	return check(fset, parsed)
}

type parsedPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string
}

// parseDir parses the non-test Go files of dir. It returns nil when the
// directory holds no buildable Go files.
func parseDir(fset *token.FileSet, dir, path string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pp := &parsedPkg{path: path, dir: dir}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pp.files = append(pp.files, f)
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				pp.imports = append(pp.imports, p)
			}
		}
	}
	if len(pp.files) == 0 {
		return nil, nil
	}
	sort.Strings(pp.imports)
	return pp, nil
}

// check type-checks the parsed packages in dependency order.
func check(fset *token.FileSet, parsed map[string]*parsedPkg) (*Module, error) {
	mi := &moduleImporter{
		local: make(map[string]*types.Package, len(parsed)),
		std:   stdImporter(fset),
	}
	mod := &Module{Fset: fset}
	// Topological order over module-local imports (stdlib edges resolve
	// through the importer and cannot cycle back into the module).
	state := make(map[string]int, len(parsed)) // 0 new, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		pp, ok := parsed[path]
		if !ok || state[path] == 2 {
			return nil
		}
		if state[path] == 1 {
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = 1
		for _, imp := range pp.imports {
			if err := visit(imp); err != nil {
				return err
			}
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: mi}
		tpkg, err := conf.Check(path, fset, pp.files, info)
		if err != nil {
			return fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		mi.local[path] = tpkg
		mod.Packages = append(mod.Packages, &Package{
			Path:  path,
			Dir:   pp.dir,
			Files: pp.files,
			Types: tpkg,
			Info:  info,
		})
		state[path] = 2
		return nil
	}
	paths := make([]string, 0, len(parsed))
	for p := range parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	mod.buildCollectiveIndex()
	return mod, nil
}

// moduleName extracts the module path from a go.mod file.
func moduleName(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if name, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(name), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// packageDirs lists every directory under root holding Go files, skipping
// hidden trees and testdata (fixtures are loaded by analysistest, not here).
func packageDirs(root string) ([]string, error) {
	var dirs []string
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
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}
