package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the reproducibility contract of the decision
// packages (core, sclp, contract, evo), of the distributed graph whose
// orderings they iterate (dgraph: adjacency, exchange plan, the ghost
// reverse CSR behind refinement's active set) and of the generators every
// experiment's input comes from (gen): for a fixed seed — and in the
// parallel setting a fixed (seed, rank) pair — runs must be bit-identical.
// Three sources of hidden nondeterminism are flagged:
//
//   - time.Now / time.Since: wall-clock values must never influence
//     partition state. Timing for Stats is fine — annotate the line
//     //lint:determinism-ok <reason>.
//   - global math/rand (and math/rand/v2): all randomness flows through
//     internal/rng streams derived from the run seed.
//   - range over a map: Go randomizes iteration order, so any map range
//     whose body does more than commutative integer accumulation
//     (+=, -=, ++, --) can leak the order into results. Iterate sorted
//     keys, use internal/hashtab, or annotate.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbids wall-clock, global math/rand and order-dependent map ranges in decision packages",
	Run:  runDeterminism,
}

// determinismScope lists the packages (by final import-path element) whose
// decisions feed partition state, plus dgraph, whose row orders those
// decisions walk, and gen, whose output is that state's input.
var determinismScope = map[string]bool{
	"core":     true,
	"sclp":     true,
	"contract": true,
	"evo":      true,
	"dgraph":   true,
	"gen":      true,
}

func runDeterminism(p *Pass) {
	path := p.Pkg.Path()
	if !determinismScope[path[strings.LastIndex(path, "/")+1:]] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkForbiddenPkg(p, n)
			case *ast.RangeStmt:
				checkMapRange(p, n)
			}
			return true
		})
	}
}

// checkForbiddenPkg flags time.Now/time.Since and any use of math/rand.
func checkForbiddenPkg(p *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			if !p.lintOK("determinism", sel.Pos()) {
				p.Reportf(sel.Pos(),
					"time.%s in a determinism-scoped package: wall-clock values must not influence partition state (annotate //lint:determinism-ok <reason> for Stats-only timing)",
					sel.Sel.Name)
			}
		}
	case "math/rand", "math/rand/v2":
		if !p.lintOK("determinism", sel.Pos()) {
			p.Reportf(sel.Pos(),
				"global math/rand is not seeded per run: use an internal/rng stream derived from the run seed")
		}
	}
}

// checkMapRange flags ranges over map values unless the body is pure
// commutative accumulation or the statement carries an escape hatch.
func checkMapRange(p *Pass, r *ast.RangeStmt) {
	tv, ok := p.Info.Types[r.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if commutativeBody(r.Body) || p.lintOK("determinism", r.Pos()) {
		return
	}
	p.Reportf(r.Pos(),
		"map iteration order is randomized: values flowing out of this range are nondeterministic; iterate sorted keys (or annotate //lint:determinism-ok <reason>)")
}

// commutativeBody reports whether every statement is an order-independent
// integer accumulation: x++, x--, x += e, x -= e (optionally wrapped in an
// if). Anything else — appends, index writes, calls — may expose order.
func commutativeBody(b *ast.BlockStmt) bool {
	var ok func(s ast.Stmt) bool
	ok = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return true
		case *ast.AssignStmt:
			return s.Tok == token.ADD_ASSIGN || s.Tok == token.SUB_ASSIGN
		case *ast.IfStmt:
			if s.Init != nil || s.Else != nil {
				return false
			}
			for _, inner := range s.Body.List {
				if !ok(inner) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, s := range b.List {
		if !ok(s) {
			return false
		}
	}
	return true
}
