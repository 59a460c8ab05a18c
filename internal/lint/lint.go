// Package lint is bmatchvet's analyzer suite: a small, stdlib-only
// go/analysis-shaped framework plus the analyzers that enforce this
// repository's determinism, hygiene, and arena-lifetime invariants at
// compile time instead of at test time.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, testdata fixtures with "// want"
// comments) so the analyzers could be ported to a real multichecker
// verbatim, but it is built on nothing beyond go/ast, go/types, and the
// go command — the toolchain this repository already requires. See
// README.md "Static invariants" for what each analyzer enforces and for
// the //lint: annotation grammar.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant checker. Run is invoked once per
// package with a fully type-checked Pass and reports findings through
// pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run analyzes one package.
	Run func(pass *Pass) error
}

// A Pass carries one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the import path the package is analyzed as. Fixture
	// packages under testdata are checked under the cone path they
	// impersonate, so cone membership logic is exercised unchanged.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Prog is the whole-program view (dependency graph, cone
	// membership). It is nil for single-package fixture runs; analyzers
	// that need it fall back to path-based membership.
	Prog *Program

	report      func(Diagnostic)
	annotations map[*ast.File]map[int]*Annotation
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// An Annotation is one parsed //lint: directive.
type Annotation struct {
	// Name is the directive name ("sorted", "parallel", "context").
	Name string
	// Reason is the mandatory free-text justification.
	Reason string
	// Pos is the comment's position.
	Pos token.Pos
	// Line is the line the comment sits on.
	Line int
}

// AnnotationNames are the directives the suite understands, mapped to
// the analyzer that consumes them.
var AnnotationNames = map[string]string{
	"sorted":   "maprange",
	"parallel": "nondeterminism",
	"context":  "ctxpropagation",
}

// parseAnnotation parses a "//lint:name reason" comment. ok reports
// whether the comment is a //lint: directive at all; malformed
// directives (unknown name, missing reason) come back with an empty
// Reason or a Name outside AnnotationNames and are diagnosed by the
// annotation analyzer.
func parseAnnotation(c *ast.Comment, fset *token.FileSet) (Annotation, bool) {
	text, found := strings.CutPrefix(c.Text, "//lint:")
	if !found {
		return Annotation{}, false
	}
	name, reason, _ := strings.Cut(text, " ")
	// A trailing `// want "…"` is a fixture expectation (fixture_test.go),
	// never part of the justification.
	reason, _, _ = strings.Cut(reason, "// want")
	return Annotation{
		Name:   name,
		Reason: strings.TrimSpace(reason),
		Pos:    c.Pos(),
		Line:   fset.Position(c.Pos()).Line,
	}, true
}

// annotationsFor lazily indexes a file's //lint: directives by line.
func (p *Pass) annotationsFor(f *ast.File) map[int]*Annotation {
	if p.annotations == nil {
		p.annotations = make(map[*ast.File]map[int]*Annotation)
	}
	if m, ok := p.annotations[f]; ok {
		return m
	}
	m := make(map[int]*Annotation)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if ann, ok := parseAnnotation(c, p.Fset); ok {
				a := ann
				m[a.Line] = &a
			}
		}
	}
	p.annotations[f] = m
	return m
}

// annotated reports whether node carries a //lint:name directive: a
// directive comment on the node's starting line (trailing) or on the
// line directly above it. A matching directive with an empty reason is
// rejected here and diagnosed at the use site, so an annotation can
// never suppress a finding without justifying itself.
func (p *Pass) annotated(node ast.Node, name string) (*Annotation, bool) {
	f := p.fileOf(node.Pos())
	if f == nil {
		return nil, false
	}
	line := p.Fset.Position(node.Pos()).Line
	anns := p.annotationsFor(f)
	for _, l := range []int{line, line - 1} {
		if a := anns[l]; a != nil && a.Name == name && a.Reason != "" {
			return a, true
		}
	}
	return nil, false
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// Analyzers returns the full bmatchvet suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnnotationAnalyzer,
		ImportHygieneAnalyzer,
		MapRangeAnalyzer,
		NondeterminismAnalyzer,
		CtxPropagationAnalyzer,
		ScratchLifetimeAnalyzer,
	}
}

// RunAnalyzers runs every analyzer over every package of prog and
// returns the findings sorted by position.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// typeIsContext reports whether t is context.Context.
func typeIsContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// calleeFunc resolves a call expression to the function or method
// object it invokes, or nil for builtins, conversions, and calls
// through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}
