// Package determinism enforces CUP's reproducibility contract: a
// simulated run is a pure function of its seeds, so the packages that
// compute paper results (the protocol core, the discrete-event engine,
// the experiment sweeps, and the traffic/fault generators) must not
// read wall clocks, draw from process-global RNGs, or let Go's
// randomized map iteration order leak into ordered output.
//
// Scope: the packages in Packages, plus any file carrying a
// //cup:deterministic file directive (the public generator files in
// the root cup package opt in this way). Test files are exempt.
//
// Checks:
//
//   - wall clock: calls to time.Now, time.Since, time.Until,
//     time.Sleep, time.After, time.Tick, time.NewTimer,
//     time.NewTicker, and time.AfterFunc. Wall time may only be read
//     behind the live transport; a measurement-only reading (one that
//     never feeds simulated state, e.g. the experiment engine timing
//     its trials) is suppressed line-by-line with //cup:wallclock.
//   - global RNG: any package-level math/rand or math/rand/v2
//     function (rand.Intn, rand.Float64, rand.Shuffle, ...) — these
//     draw from the process-wide source. Randomness must flow from
//     TrafficEnv.Rand. The constructors rand.New, rand.NewSource, and
//     rand.NewZipf are allowed, but rand.New's argument must itself be
//     a rand.NewSource(...) call so the seed provenance is visible at
//     the call site. Importing crypto/rand is an error outright.
//   - map iteration: a range over a map whose body does
//     order-dependent work. The classifier accepts the repository's
//     collect-then-sort idiom (append into a slice that is sorted
//     later in the same function) and provably commutative bodies
//     (numeric accumulation, per-element writes, delete); anything
//     else must either be rewritten or annotated //cup:unordered with
//     a justification.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"cup/internal/analysis"
)

// Packages is the import-path set checked by default.
var Packages = map[string]bool{
	"cup/internal/cup":        true,
	"cup/internal/sim":        true,
	"cup/internal/experiment": true,
}

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global RNG, and order-dependent map iteration " +
		"in the packages that must produce bit-identical output from a seed",
	Run: run,
}

// forbiddenTime lists the time package's nondeterminism entry points.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRand lists the math/rand constructors that are fine when fed
// an explicit deterministic seed.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *analysis.Pass) error {
	inPkg := Packages[pass.PkgPath()]
	for _, f := range pass.Files {
		if !inPkg && !pass.Directives.FileScope(f, analysis.DirDeterministic) {
			continue
		}
		if pass.IsTestFile(f) || analysis.IsGenerated(f) {
			continue
		}
		checkImports(pass, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCalls(pass, fn.Body)
			checkMapRanges(pass, fn.Body)
		}
	}
	return nil
}

// checkImports flags crypto/rand: there is no deterministic use of it.
func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"crypto/rand"` {
			pass.Reportf(imp.Pos(),
				"crypto/rand imported in deterministic code; randomness must derive from TrafficEnv.Rand")
		}
	}
}

// checkCalls flags wall-clock and global-RNG call sites.
func checkCalls(pass *analysis.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := analysis.CalleeObject(pass.TypesInfo, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "time":
			if forbiddenTime[obj.Name()] && !pass.Directives.At(call.Pos(), analysis.DirWallclock) {
				pass.Reportf(call.Pos(),
					"wall-clock call time.%s in deterministic code; only the live transport may read real time (measurement-only readings: annotate //cup:wallclock)",
					obj.Name())
			}
		case "math/rand", "math/rand/v2":
			if !allowedRand[obj.Name()] {
				pass.Reportf(call.Pos(),
					"global rand.%s draws from the process-wide source; draw from TrafficEnv.Rand",
					obj.Name())
			} else if obj.Name() == "New" {
				checkRandNew(pass, call)
			}
		}
		return true
	})
}

// checkRandNew requires rand.New's source argument to be a visible
// rand.NewSource(...) call, so every generator's seed provenance is
// auditable at the construction site.
func checkRandNew(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if ok {
		if obj := analysis.CalleeObject(pass.TypesInfo, arg); obj != nil && obj.Pkg() != nil &&
			(obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2") &&
			obj.Name() == "NewSource" {
			return
		}
	}
	pass.Reportf(call.Pos(),
		"rand.New without an inline rand.NewSource(seed): seed provenance must be visible at the construction site")
}

// checkMapRanges classifies every range-over-map in body.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Directives.At(rng.Pos(), analysis.DirUnordered) {
			return true
		}
		c := &classifier{pass: pass, body: body, rng: rng, locals: map[types.Object]bool{}}
		c.noteVar(rng.Key)
		c.noteVar(rng.Value)
		if !c.safeBlock(rng.Body) {
			pass.Reportf(rng.Pos(),
				"map iteration order can leak into results (%s); collect into a slice and sort, or annotate //cup:unordered with why the body commutes",
				c.reason)
		}
		return true
	})
}

// classifier decides whether a map-range body is order-insensitive.
type classifier struct {
	pass *analysis.Pass
	// body is the enclosing function body, searched for post-loop
	// sorts of collected slices.
	body *ast.BlockStmt
	rng  *ast.RangeStmt
	// locals are variables declared inside the loop (plus the
	// iteration variables): writes to them are per-iteration state.
	locals map[types.Object]bool
	reason string
}

func (c *classifier) noteVar(e ast.Expr) {
	if e == nil {
		return
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
			c.locals[obj] = true
		}
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			c.locals[obj] = true
		}
	}
}

func (c *classifier) fail(pos token.Pos, why string) bool {
	if c.reason == "" {
		c.reason = why
	}
	return false
}

func (c *classifier) safeBlock(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !c.safeStmt(s) {
			return false
		}
	}
	return true
}

func (c *classifier) safeStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.safeAssign(s)
	case *ast.IncDecStmt:
		// x++ / x-- commute across iterations.
		return true
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						c.noteVar(name)
					}
				}
			}
		}
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if c.pass.TypesInfo.Uses[id] == nil || c.pass.TypesInfo.Uses[id].Parent() == types.Universe {
					return true // delete(m, k) commutes
				}
			}
		}
		return c.fail(s.Pos(), "calls with side effects run in map order")
	case *ast.IfStmt:
		if s.Init != nil && !c.safeStmt(s.Init) {
			return false
		}
		if !c.safeBlock(s.Body) {
			return false
		}
		if s.Else != nil {
			return c.safeStmt(s.Else)
		}
		return true
	case *ast.BlockStmt:
		return c.safeBlock(s)
	case *ast.RangeStmt:
		c.noteVar(s.Key)
		c.noteVar(s.Value)
		return c.safeBlock(s.Body)
	case *ast.ForStmt:
		if s.Init != nil && !c.safeStmt(s.Init) {
			return false
		}
		if s.Post != nil && !c.safeStmt(s.Post) {
			return false
		}
		return c.safeBlock(s.Body)
	case *ast.SwitchStmt:
		for _, cc := range s.Body.List {
			for _, st := range cc.(*ast.CaseClause).Body {
				if !c.safeStmt(st) {
					return false
				}
			}
		}
		return true
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return true
		}
		return c.fail(s.Pos(), "early exit depends on which element is visited first")
	case *ast.ReturnStmt:
		return c.fail(s.Pos(), "returning from inside the loop depends on visit order")
	default:
		return c.fail(s.Pos(), "statement kind not provably order-insensitive")
	}
}

// safeAssign classifies one assignment inside the loop body.
func (c *classifier) safeAssign(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.DEFINE:
		for _, lhs := range s.Lhs {
			c.noteVar(lhs)
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative accumulation (sum += x, total -= n, bits |= b).
		return true
	case token.ASSIGN:
		for i, lhs := range s.Lhs {
			if c.safeCollect(lhs, s.Rhs, i) {
				continue
			}
			if c.safeTarget(lhs) {
				continue
			}
			return c.fail(s.Pos(), "last-writer-wins assignment outside the current element")
		}
		return true
	default:
		return c.fail(s.Pos(), "assignment operator not provably order-insensitive")
	}
}

// safeTarget reports whether writing through lhs only touches
// per-iteration or per-element state: loop locals, fields of the
// iteration value, and map entries (each element writes its own key).
func (c *classifier) safeTarget(lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return true
		}
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		return obj != nil && c.locals[obj]
	case *ast.IndexExpr:
		if t := c.pass.TypesInfo.TypeOf(e.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return true
			}
		}
		return c.safeTarget(e.X)
	case *ast.SelectorExpr:
		return c.safeTarget(e.X)
	case *ast.StarExpr:
		return c.safeTarget(e.X)
	}
	return false
}

// safeCollect recognizes the collect-then-sort idiom: lhs = append(lhs,
// ...) where lhs's root is sorted after the loop in the same function.
func (c *classifier) safeCollect(lhs ast.Expr, rhs []ast.Expr, i int) bool {
	var r ast.Expr
	switch {
	case len(rhs) == 1:
		r = rhs[0]
	case i < len(rhs):
		r = rhs[i]
	default:
		return false
	}
	call, ok := ast.Unparen(r).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil && obj.Parent() != types.Universe {
		return false
	}
	target := c.rootObj(lhs)
	if target == nil || c.rootObj(call.Args[0]) != target {
		return false
	}
	return c.sortedAfterLoop(target)
}

// rootObj resolves the variable at the root of an lvalue chain.
func (c *classifier) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return c.pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortFuncs are the recognized sorting entry points.
var sortFuncs = map[string]map[string]bool{
	"sort": {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedAfterLoop reports whether target is passed to a sort function
// after the range statement, anywhere in the enclosing function body.
func (c *classifier) sortedAfterLoop(target types.Object) bool {
	found := false
	ast.Inspect(c.body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < c.rng.End() {
			return true
		}
		obj := analysis.CalleeObject(c.pass.TypesInfo, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		names := sortFuncs[obj.Pkg().Path()]
		if names == nil || !names[obj.Name()] || len(call.Args) == 0 {
			return true
		}
		if c.rootObj(call.Args[0]) == target {
			found = true
			return false
		}
		return true
	})
	return found
}
