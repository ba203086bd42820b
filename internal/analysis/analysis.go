// Package analysis is the project's static-analysis framework: a small,
// dependency-free driver (go/parser + go/types + go/importer, no
// golang.org/x/tools) plus the five project-invariant analyzers wired into
// CI through cmd/parhiplint and into `go test` through the fixture tests.
//
// The framework mechanizes invariants the compiler cannot see:
//
//   - collective  — SPMD collective discipline: every rank must issue mpi
//     collectives in the same order, so a collective call inside a
//     rank-dependent branch is a latent deadlock.
//   - mutexguard  — fields documented "guarded by <mu>" may only be touched
//     by functions that lock that mutex (or are annotated as holding it).
//   - determinism — core/sclp/contract/evo decisions and gen's graphs must
//     be reproducible: no time.Now, no global math/rand, no order-dependent
//     map iteration.
//   - hotpath     — functions annotated //parhip:hotpath must stay
//     allocation-free: no variadic calls, fmt, int boxing, stored closures.
//   - apiaudit    — partitions cross exported APIs under documented names,
//     never as bare []int32 (the api_audit_test.go rule, all packages).
//
// Escape hatches are line- or declaration-scoped comments of the form
// //lint:<analyzer>-ok <reason>; the reason is mandatory by convention and
// reviewed like code. Two positive annotations drive analyzers:
// //parhip:hotpath (function doc) opts a function into the hotpath checks,
// and //parhip:collective (function doc) marks a function as an SPMD
// collective so calls to it are checked; the mpi primitives carry it too.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// IsCollective reports whether fn is an SPMD collective: a function
	// annotated //parhip:collective, the mpi primitives included. Set by
	// the driver from the whole-module index; never nil.
	IsCollective func(fn *types.Func) bool

	directives map[string]map[int][]string // file -> line -> raw comment texts
	report     func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// buildDirectives indexes every comment by (file, line) so escape hatches
// can be resolved in O(1) per candidate position.
func (p *Pass) buildDirectives() {
	p.directives = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				m := p.directives[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					p.directives[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], c.Text)
			}
		}
	}
}

// lintOK reports whether a //lint:<name>-ok escape hatch covers pos: on the
// same line (trailing comment) or the line directly above it.
func (p *Pass) lintOK(name string, pos token.Pos) bool {
	needle := "//lint:" + name + "-ok"
	position := p.Fset.Position(pos)
	lines := p.directives[position.Filename]
	for _, l := range []int{position.Line, position.Line - 1} {
		for _, text := range lines[l] {
			if strings.HasPrefix(text, needle) {
				return true
			}
		}
	}
	return false
}

// docHas reports whether a comment group contains a comment line starting
// with the given directive prefix (e.g. "//parhip:hotpath").
func docHas(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// RunAnalyzers executes every analyzer over every package of the module and
// returns the findings sorted by position.
func RunAnalyzers(mod *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range mod.Packages {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:     a,
				Fset:         mod.Fset,
				Files:        pkg.Files,
				Pkg:          pkg.Types,
				Info:         pkg.Info,
				IsCollective: mod.IsCollective,
				report:       func(d Diagnostic) { diags = append(diags, d) },
			}
			pass.buildDirectives()
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		CollectiveAnalyzer,
		MutexGuardAnalyzer,
		DeterminismAnalyzer,
		HotpathAnalyzer,
		APIAuditAnalyzer,
	}
}
