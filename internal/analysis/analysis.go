// Package analysis is the repository's static-analysis framework: a
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) just large enough to host the
// cuplint pass suite. The module deliberately has no external
// dependencies, so the framework is built on the standard library's
// go/ast, go/types, and go/importer alone; the API mirrors x/tools so
// the passes could migrate onto the upstream framework without change
// if the dependency ever lands.
//
// Two drivers run the same analyzers:
//
//   - Load (load.go) builds packages via `go list -export -deps` and is
//     what `cuplint ./...` and the in-repo smoke test use;
//   - analysistest (analysistest/) typechecks golden fixture packages
//     under testdata/src and asserts diagnostics against // want
//     comments.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flag names.
	Name string
	// Doc is the one-paragraph description `cuplint -list` prints.
	Doc string
	// Run executes the check over one package, reporting findings
	// through pass.Report.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo maps syntax to types and objects.
	TypesInfo *types.Info
	// Directives indexes the //cup: annotation comments of Files.
	Directives *Directives
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// PkgPath returns the package's import path with cmd/go's test-variant
// suffix ("pkg [pkg.test]") stripped, so path-scoped passes treat a
// package and its test variant alike.
func (p *Pass) PkgPath() string {
	path := p.Pkg.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

// IsGenerated reports whether f carries the standard generated-code
// marker; generated files are exempt from every pass.
func IsGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// Code generated ") &&
				strings.HasSuffix(c.Text, " DO NOT EDIT.") {
				return true
			}
		}
	}
	return false
}

// IsTestFile reports whether f was parsed from a _test.go file. The
// cuplint passes skip test files: tests may legitimately read wall
// clocks, allocate on hot paths they measure, and block on channels.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// NewInfo returns a types.Info with every map the passes need.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// CalleeObject resolves the object a call expression invokes: the
// function or method object for direct calls and selector calls, nil
// for indirect calls through variables, builtins, and conversions.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o := info.Uses[fun]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: pkg.F.
		if o := info.Uses[fun.Sel]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	}
	return nil
}

// PkgFunc reports whether call invokes the package-level function
// pkgPath.name (methods never match).
func PkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	o := CalleeObject(info, call)
	if o == nil || o.Pkg() == nil {
		return false
	}
	if fn, ok := o.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return o.Pkg().Path() == pkgPath && o.Name() == name
}
