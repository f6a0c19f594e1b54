// Package eventexhaustive pins the event-stream contract: every
// cup/internal/cup EvXxx kind constant must be handled wherever the
// stream is folded into downstream state, so appending a new kind (as
// EvQueryCoalesced was) cannot silently drop telemetry.
//
// Two checks:
//
//   - a switch statement annotated //cup:eventexhaustive must name
//     every package-level constant of its tag's (enum-like) type in
//     its case clauses. A default clause does not count as coverage —
//     the point is that adding a kind forces a human to decide what
//     each consumer does with it. The obs Collector fold, the obs
//     Tracer consumer, and EventKind.String carry this annotation.
//   - in cup/internal/cup itself, the EventKinds catalog slice must
//     list every EventKind constant: it is the iteration surface
//     cupsim -trace and the collector's per-kind registration use.
package eventexhaustive

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"cup/internal/analysis"
)

// Analyzer is the eventexhaustive pass.
var Analyzer = &analysis.Analyzer{
	Name: "eventexhaustive",
	Doc: "require //cup:eventexhaustive switches to cover every constant of their " +
		"tag type, and the EventKinds catalog to list every EventKind",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) || analysis.IsGenerated(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if pass.Directives.At(sw.Pos(), analysis.DirEventExhaustive) {
				checkSwitch(pass, sw)
			}
			return true
		})
		if pass.PkgPath() == "cup/internal/cup" {
			checkCatalog(pass, f)
		}
	}
	return nil
}

// enumConstants returns every package-level constant whose type is
// exactly t, keyed by object, in declaration-independent name order.
func enumConstants(t types.Type) []*types.Const {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), t) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// checkSwitch verifies one annotated switch covers its tag type's
// constants.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		pass.Reportf(sw.Pos(), "//cup:eventexhaustive switch has no tag expression")
		return
	}
	t := pass.TypesInfo.TypeOf(sw.Tag)
	if t == nil {
		return
	}
	consts := enumConstants(t)
	if len(consts) == 0 {
		pass.Reportf(sw.Pos(), "//cup:eventexhaustive switch tag type %s has no package-level constants to cover", t.String())
		return
	}
	covered := make(map[types.Object]bool)
	for _, cc := range sw.Body.List {
		for _, e := range cc.(*ast.CaseClause).List {
			var id *ast.Ident
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				id = x
			case *ast.SelectorExpr:
				id = x.Sel
			default:
				continue
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				covered[obj] = true
			}
		}
	}
	var missing []string
	for _, c := range consts {
		if !covered[c] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(),
			"switch is not exhaustive over %s: missing %s (a default clause does not count — every kind needs an explicit decision)",
			t.String(), strings.Join(missing, ", "))
	}
}

// checkCatalog verifies the EventKinds slice literal lists every
// EventKind constant.
func checkCatalog(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if name.Name != "EventKinds" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				sl, ok := obj.Type().Underlying().(*types.Slice)
				if !ok {
					continue
				}
				consts := enumConstants(sl.Elem())
				listed := make(map[types.Object]bool)
				for _, e := range cl.Elts {
					if id, ok := ast.Unparen(e).(*ast.Ident); ok {
						if o := pass.TypesInfo.Uses[id]; o != nil {
							listed[o] = true
						}
					}
				}
				var missing []string
				for _, c := range consts {
					if !listed[c] {
						missing = append(missing, c.Name())
					}
				}
				if len(missing) > 0 {
					pass.Reportf(cl.Pos(),
						"EventKinds catalog is missing %s; every EventKind constant must be listed (telemetry registration iterates this slice)",
						strings.Join(missing, ", "))
				}
			}
		}
	}
}
