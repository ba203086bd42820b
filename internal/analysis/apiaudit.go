package analysis

import (
	"go/ast"
	"go/token"
)

// APIAuditAnalyzer generalizes the root package's v2 API audit (previously
// a hand-rolled AST walk in api_audit_test.go) to every package: no
// exported declaration may accept, return or carry a bare []int32. Partitions travel under documented names — *parhip.Partition at
// the public boundary, partition.Partition and friends internally — so
// that a slice of block IDs is never confused with a slice of anything
// else. Named types whose underlying is []int32 pass: the rule targets
// anonymous slices, not the wrappers.
//
// Escapes: the allowlisted raw-slice boundary functions, and
// //lint:rawslice-ok <reason> for internal SPMD plumbing where the raw
// assignment slice is the working representation.
var APIAuditAnalyzer = &Analyzer{
	Name: "apiaudit",
	Doc:  "exported declarations must not carry bare []int32 partitions",
	Run:  runAPIAudit,
}

// rawSliceAllowlist names the sanctioned raw-assignment boundary: the
// adapter wrapping a raw slice into the value type, and the two checkers
// for assignments that arrive as raw slices.
var rawSliceAllowlist = map[string]bool{
	"NewPartition": true,
	"EdgeCut":      true,
	"IsFeasible":   true,
}

func runAPIAudit(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				auditFuncDecl(p, d)
			case *ast.GenDecl:
				auditGenDecl(p, d)
			}
		}
	}
}

// hasBareInt32Slice reports whether the type expression contains a literal
// []int32 (named int32-slice types pass — the point is a documented name).
func hasBareInt32Slice(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		arr, ok := n.(*ast.ArrayType)
		if !ok || arr.Len != nil {
			return true
		}
		if id, ok := arr.Elt.(*ast.Ident); ok && id.Name == "int32" {
			found = true
			return false
		}
		return true
	})
	return found
}

func fieldsHaveBareInt32(fl *ast.FieldList) bool {
	if fl == nil {
		return false
	}
	for _, f := range fl.List {
		if hasBareInt32Slice(f.Type) {
			return true
		}
	}
	return false
}

// receiverExported reports whether a method's receiver base type is
// exported; methods on unexported types are not part of the package API.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func auditFuncDecl(p *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() || !receiverExported(d) ||
		rawSliceAllowlist[d.Name.Name] || p.lintOK("rawslice", d.Pos()) {
		return
	}
	if fieldsHaveBareInt32(d.Type.Params) || fieldsHaveBareInt32(d.Type.Results) {
		p.Reportf(d.Pos(),
			"exported %s has a bare []int32 in its signature; use a documented partition type or annotate //lint:rawslice-ok <reason>",
			d.Name.Name)
	}
}

func auditGenDecl(p *Pass, d *ast.GenDecl) {
	if d.Tok != token.TYPE && d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || !ts.Name.IsExported() || p.lintOK("rawslice", ts.Pos()) {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			// Non-struct named types are the documented wrappers the
			// rule asks for — but a func type with a bare
			// []int32 parameter still counts.
			if ft, isFunc := ts.Type.(*ast.FuncType); isFunc {
				if fieldsHaveBareInt32(ft.Params) || fieldsHaveBareInt32(ft.Results) {
					p.Reportf(ts.Pos(), "exported func type %s has a bare []int32", ts.Name.Name)
				}
			}
			continue
		}
		for _, f := range st.Fields.List {
			if !hasBareInt32Slice(f.Type) || p.lintOK("rawslice", f.Pos()) {
				continue
			}
			exported := false
			for _, n := range f.Names {
				if n.IsExported() {
					exported = true
				}
			}
			if exported {
				p.Reportf(f.Pos(),
					"exported field %s.%v carries a bare []int32; use a documented partition type or annotate //lint:rawslice-ok <reason>",
					ts.Name.Name, f.Names)
			}
		}
	}
}
