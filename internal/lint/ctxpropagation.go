package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagationAnalyzer enforces the cancellation contract inside the
// solver cone: once a function has a context.Context it must thread it
// down, never manufacture a fresh root.
//
//   - Inside any function that takes a context.Context: calls to
//     context.Background() / context.TODO() are flagged — the ctx in
//     scope (or a child derived from it) is the only valid context.
//   - Inside a ctx-taking function, calling a module-internal function
//     or method X when a sibling XCtx exists is flagged: the ...Ctx
//     variant exists precisely so the ctx is not dropped at that call.
//   - Exported functions named ...Ctx must actually take a
//     context.Context (the name is the contract).
//   - In functions without a ctx parameter, context.Background() and
//     context.TODO() are flagged too: the cone has no compat wrappers, so
//     a solver entry point takes its caller's context instead of
//     manufacturing one.
//
// A deliberate fresh root is kept with:
//
//	//lint:context <why a fresh root context is correct here>
var CtxPropagationAnalyzer = &Analyzer{
	Name: "ctxpropagation",
	Doc: "solver-cone ...Ctx functions must thread their context to every callee " +
		"that accepts one; no fresh root contexts in the cone",
	Run: runCtxPropagation,
}

func runCtxPropagation(pass *Pass) error {
	if !InSolverCone(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxFunc(pass, fd)
		}
	}
	return nil
}

func checkCtxFunc(pass *Pass, fd *ast.FuncDecl) {
	hasCtx := funcTakesContext(pass, fd.Type)
	if fd.Name.IsExported() && strings.HasSuffix(fd.Name.Name, "Ctx") && !hasCtx {
		pass.Reportf(fd.Pos(),
			"exported %s is named ...Ctx but takes no context.Context parameter", fd.Name.Name)
	}
	if fd.Body == nil {
		return
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isPkgFunc(pass.Info, call, "context", "Background"):
			if _, ok := pass.annotated(nearestStmtNode(call), "context"); ok {
				return true
			}
			if hasCtx {
				pass.Reportf(call.Pos(),
					"context.Background() inside a function that already has a context.Context: "+
						"pass the ctx parameter (or derive from it), or annotate //lint:context <reason>")
			} else {
				pass.Reportf(call.Pos(),
					"context.Background() in the solver cone: "+
						"take the caller's context, or annotate //lint:context <reason>")
			}
		case isPkgFunc(pass.Info, call, "context", "TODO"):
			if _, ok := pass.annotated(nearestStmtNode(call), "context"); ok {
				return true
			}
			pass.Reportf(call.Pos(),
				"context.TODO() in the solver cone: thread a real context, "+
					"or annotate //lint:context <reason>")
		default:
			if !hasCtx {
				return true
			}
			if sib := droppedCtxSibling(pass, call); sib != "" {
				if _, ok := pass.annotated(nearestStmtNode(call), "context"); ok {
					return true
				}
				pass.Reportf(call.Pos(),
					"ctx is in scope but the call drops it: call %s and pass the context", sib)
			}
		}
		return true
	})
}

// droppedCtxSibling reports the name of the module-internal ...Ctx
// sibling of call's callee, if the callee takes no context itself and a
// sibling that does exists.
func droppedCtxSibling(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "repro") {
		return ""
	}
	if strings.HasSuffix(fn.Name(), "Ctx") {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || signatureTakesContext(sig) {
		return ""
	}
	want := fn.Name() + "Ctx"
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
		if m, ok := obj.(*types.Func); ok && signatureTakesContext(m.Type().(*types.Signature)) {
			return recv.Type().String() + "." + want
		}
		return ""
	}
	if s, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok && signatureTakesContext(s.Type().(*types.Signature)) {
		if fn.Pkg().Path() == pass.Path {
			return want
		}
		return fn.Pkg().Name() + "." + want
	}
	return ""
}

func funcTakesContext(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := pass.Info.Types[field.Type]; ok && typeIsContext(tv.Type) {
			return true
		}
	}
	return false
}

func signatureTakesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if typeIsContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// nearestStmtNode returns the node whose source line an annotation must
// sit on. Expressions don't know their statement; using the expression
// node keeps the rule simple: the //lint: comment goes on (or directly
// above) the line where the flagged call starts.
func nearestStmtNode(call *ast.CallExpr) ast.Node { return call }
