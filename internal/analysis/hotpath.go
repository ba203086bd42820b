package analysis

import (
	"go/ast"
	"go/types"
)

// HotpathAnalyzer keeps functions annotated //parhip:hotpath free of the
// allocation patterns that PR 6's zero-alloc design work eliminated by
// hand (the tracer's fixed-arity End1/2/3 instead of variadics, value-only
// ghost exchange). Inside an annotated function it flags:
//
//   - variadic calls passing arguments (the call site allocates the
//     argument slice — the exact escape the tracer API avoids);
//   - any call into package fmt (formatting allocates);
//   - boxing an integer/float/bool into an interface (call arguments,
//     assignments, returns);
//   - function literals in stored positions (assigned, returned, placed in
//     a composite or channel: those always escape to the heap; literals
//     passed directly as call arguments are commonly inlined and are not
//     flagged) and go statements;
//   - sync.Mutex / sync.RWMutex lock operations (Lock, Unlock, RLock,
//     RUnlock, TryLock, TryRLock): a contended lock parks the goroutine,
//     and a kernel runs on its rank's goroutine alone, so it has nothing
//     to lock;
//   - channel sends: a send synchronizes (and parks when the buffer is
//     full), which belongs at superstep boundaries, not inside kernels.
//
// The analyzer is an upper bound, not a proof: the alloc-ratio benchmarks
// (obs TestNilTracerZeroAllocs, sclp TestExchangeLabelsAllocRatio) remain
// the ground truth. A pattern verified cheap by benchmark can be annotated
// //lint:hotpath-ok <reason>.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "forbids allocation patterns in functions annotated //parhip:hotpath",
	Run:  runHotpath,
}

func runHotpath(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !docHas(fd.Doc, "//parhip:hotpath") {
				continue
			}
			checkHotpathBody(p, fd)
		}
	}
}

func checkHotpathBody(p *Pass, fd *ast.FuncDecl) {
	report := func(n ast.Node, format string, args ...any) {
		if !p.lintOK("hotpath", n.Pos()) {
			p.Reportf(n.Pos(), format, args...)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, n, report)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					checkBoxing(p, n.Lhs[i], rhs, report)
				}
				if fl, ok := rhs.(*ast.FuncLit); ok {
					report(fl, "closure stored in a hot path: the function literal escapes to the heap")
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if fl, ok := res.(*ast.FuncLit); ok {
					report(fl, "closure returned from a hot path: the function literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if fl, ok := e.(*ast.FuncLit); ok {
					report(fl, "closure stored in a composite literal in a hot path")
				}
			}
		case *ast.SendStmt:
			report(n, "channel send in a hot path: sends synchronize and can park the goroutine")
		case *ast.GoStmt:
			report(n, "go statement in a hot path: goroutine spawn allocates")
		}
		return true
	})
}

func checkHotCall(p *Pass, call *ast.CallExpr, report func(ast.Node, string, ...any)) {
	if isBuiltinCall(p, call) {
		// append/copy/len and friends are compiler intrinsics: append's
		// variadic signature never materializes an argument slice.
		return
	}
	fn := calleeFunc(p.Info, call)
	if fn != nil {
		if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
			report(call, "fmt.%s in a hot path: formatting allocates", fn.Name())
			return
		}
		if recv := mutexLockOp(fn); recv != "" {
			report(call, "sync.%s.%s in a hot path: a contended lock parks the goroutine (restructure for disjoint writes + sequential commit)", recv, fn.Name())
			return
		}
	}
	sig := calleeSignature(p.Info, call)
	if sig == nil {
		return
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		report(call, "variadic call in a hot path allocates the argument slice (use a fixed-arity variant)")
	}
	// Interface boxing at argument positions.
	n := sig.Params().Len()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			if s, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
				paramType = s.Elem()
			}
		case i < n:
			paramType = sig.Params().At(i).Type()
		}
		if paramType != nil && boxesBasic(p, paramType, arg) {
			report(arg, "basic value boxed into interface in a hot path (argument escapes to the heap)")
		}
	}
}

// mutexLockOp returns the receiver type name ("Mutex" or "RWMutex") when
// fn is a lock operation on a sync mutex, and "" otherwise. Calls through
// an embedded mutex field (m.mu.Lock()) resolve to the same *types.Func,
// so they are caught too.
func mutexLockOp(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil || pkg.Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	switch name := named.Obj().Name(); name {
	case "Mutex", "RWMutex":
		return name
	}
	return ""
}

func isBuiltinCall(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.Uses[id]
	_, builtin := obj.(*types.Builtin)
	return builtin
}

func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// checkBoxing flags assignments of basic values into interface-typed
// destinations.
func checkBoxing(p *Pass, lhs, rhs ast.Expr, report func(ast.Node, string, ...any)) {
	ltv, ok := p.Info.Types[lhs]
	if !ok {
		return
	}
	if boxesBasic(p, ltv.Type, rhs) {
		report(rhs, "basic value boxed into interface in a hot path")
	}
}

// boxesBasic reports whether assigning expr to a destination of type dst
// converts a basic (numeric/bool) value into an interface.
func boxesBasic(p *Pass, dst types.Type, expr ast.Expr) bool {
	if dst == nil {
		return false
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return false
	}
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, isBasic := tv.Type.Underlying().(*types.Basic)
	if !isBasic {
		return false
	}
	return b.Info()&(types.IsNumeric|types.IsBoolean) != 0
}
