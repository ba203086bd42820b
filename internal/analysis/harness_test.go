package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts a fixture expectation from a comment: the first
// backquoted regexp after the word "want". The form is a trailing or
// standalone comment on the line the diagnostic is expected at:
//
//	c.Barrier() // want `collective Barrier called in a rank-dependent branch`
//
// The pattern may share the comment with other prose (mutexguard fixtures
// combine it with the "guarded by" annotation under test).
var wantRe = regexp.MustCompile("want `([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads the given import paths from testdata/src, runs the
// analyzers over everything loaded (dependencies included, so a finding in
// a stub package fails the test too), and compares the diagnostics against
// the fixtures' want comments by (file, line, message-regexp).
func runFixture(t *testing.T, analyzers []*Analyzer, importPaths ...string) {
	t.Helper()
	mod, err := LoadPackages("testdata/src", importPaths...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", importPaths, err)
	}
	requested := make(map[string]bool, len(importPaths))
	for _, p := range importPaths {
		requested[p] = true
	}
	var wants []*expectation
	for _, pkg := range mod.Packages {
		if !requested[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v",
							mod.Fset.Position(c.Pos()), m[1], err)
					}
					pos := mod.Fset.Position(c.Pos())
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	diags := RunAnalyzers(mod, analyzers)
outer:
	for _, d := range diags {
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				continue outer
			}
		}
		t.Errorf("unexpected finding: %s", d)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// LoadPackages parses and type-checks the packages found under the given
// gopath-style source root (dir/<importpath>/*.go), resolving imports
// between them. It is the fixture loader used by analysistest.
func LoadPackages(srcRoot string, importPaths ...string) (*Module, error) {
	fset := token.NewFileSet()
	parsed := make(map[string]*parsedPkg)
	var add func(path string) error
	add = func(path string) error {
		if _, ok := parsed[path]; ok {
			return nil
		}
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil // not local: resolved as stdlib at check time
		}
		pp, err := parseDir(fset, dir, path)
		if err != nil {
			return err
		}
		if pp == nil {
			return fmt.Errorf("analysis: no Go files in %s", dir)
		}
		parsed[path] = pp
		for _, imp := range pp.imports {
			if err := add(imp); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range importPaths {
		if err := add(p); err != nil {
			return nil, err
		}
	}
	return check(fset, parsed)
}
