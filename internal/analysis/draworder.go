package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DrawOrderAnalyzer guards the model.VecModel bit-exactness contract:
// a vectorized method must consume random draws in EXACTLY the per-row
// order its scalar counterpart does (DESIGN.md, internal/model/vec.go).
// The golden traces catch a violation only for the models and seeds
// they pin; this analyzer catches the code shapes that produce one:
//
//  1. word-at-a-time scalar draws (r.Normal, r.Float64, ...) inside a
//     vectorized method body (StepVec/InitVec/LogLikelihoodVec). Block
//     replay is only bit-identical through the rng block APIs
//     (Normals/FillNormals/FillUniforms); a scalar draw
//     interleaved with block draws reorders the stream;
//  2. a block-draw sequence whose per-row draw count diverges from the
//     paired scalar method on the same receiver (Step vs StepVec,
//     InitParticle vs InitVec). The counts are compared per stream
//     (normals vs uniforms) when both sides are statically countable:
//     unconditional draws on the scalar side, block requests of
//     rows-multiple length (n, c*n, len(column)) on the vector side.
//     Draws under branches or loops, or an *rng.Rand escaping into
//     another call, make a side uncountable and the comparison stays
//     silent — soundness over completeness.
var DrawOrderAnalyzer = &Analyzer{
	Name: "draworder",
	Doc:  "model.VecModel methods must use block rng draws whose per-row count matches the paired scalar method (bit-exact draw order)",
	Run:  runDrawOrder,
}

// vecMethodNames are the VecModel methods the scalar-draw check covers.
var vecMethodNames = map[string]bool{
	"StepVec":          true,
	"InitVec":          true,
	"LogLikelihoodVec": true,
}

// methodPairs maps each vectorized method to the scalar method whose
// per-row draw count it must reproduce.
var methodPairs = map[string]string{
	"StepVec": "Step",
	"InitVec": "InitParticle",
}

// scalarDraws maps word-at-a-time rng.Rand draw methods to the stream
// ("normal"/"uniform") they consume from.
var scalarDraws = map[string]string{
	"Normal":      "normal",
	"NormFloat64": "normal",
	"Float64":     "uniform",
	"OpenFloat64": "uniform",
	"Uint64":      "uniform",
	"Uint32":      "uniform",
	"Intn":        "uniform",
}

// blockDraws maps block rng.Rand draw methods to their stream.
var blockDraws = map[string]string{
	"Normals":      "normal",
	"FillNormals":  "normal",
	"FillUniforms": "uniform",
}

// drawCount is a per-stream draw tally; ok=false means statically
// uncountable.
type drawCount struct {
	normals, uniforms int
	ok                bool
}

func runDrawOrder(pass *Pass) error {
	// Group declared methods by receiver base type name.
	methods := make(map[string]map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			recv := recvTypeName(fn)
			if recv == "" {
				continue
			}
			if methods[recv] == nil {
				methods[recv] = make(map[string]*ast.FuncDecl)
			}
			methods[recv][fn.Name.Name] = fn
		}
	}

	for _, byName := range methods {
		// Check 1: scalar draws inside vectorized methods.
		for name, fn := range byName {
			if !vecMethodNames[name] {
				continue
			}
			rObj := rngParam(pass, fn)
			if rObj == nil {
				continue
			}
			for _, call := range rngCalls(pass, fn, rObj) {
				sel := call.Fun.(*ast.SelectorExpr)
				if stream, ok := scalarDraws[sel.Sel.Name]; ok {
					pass.Reportf(call.Pos(), "scalar %s-stream draw %s.%s in vectorized method %s breaks the block-replay draw order; use the rng block APIs (Normals/FillNormals/FillUniforms)", stream, exprIdentName(sel.X), sel.Sel.Name, funcDisplayName(fn))
				}
			}
		}
		// Check 2: per-row draw-count parity between paired methods.
		for vecName, scalarName := range methodPairs {
			vecFn, scalarFn := byName[vecName], byName[scalarName]
			if vecFn == nil || scalarFn == nil {
				continue
			}
			sc := countScalarDraws(pass, scalarFn)
			vc := countVecDraws(pass, vecFn)
			if !sc.ok || !vc.ok {
				continue
			}
			if vc.normals != sc.normals {
				pass.Reportf(vecFn.Name.Pos(), "%s consumes %d normal draw(s) per row but scalar %s consumes %d; diverging draw order breaks bit-identity with the scalar path", funcDisplayName(vecFn), vc.normals, scalarName, sc.normals)
			}
			if vc.uniforms != sc.uniforms {
				pass.Reportf(vecFn.Name.Pos(), "%s consumes %d uniform draw(s) per row but scalar %s consumes %d; diverging draw order breaks bit-identity with the scalar path", funcDisplayName(vecFn), vc.uniforms, scalarName, sc.uniforms)
			}
		}
	}
	return nil
}

// recvTypeName returns the base type name of a method's receiver.
func recvTypeName(fn *ast.FuncDecl) string {
	t := fn.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// rngParam returns the object of fn's *rng.Rand parameter, if any.
func rngParam(pass *Pass, fn *ast.FuncDecl) types.Object {
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isRngRand(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// isRngRand reports whether t is *rng.Rand (esthera's internal rng).
func isRngRand(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Rand" && strings.HasSuffix(named.Obj().Pkg().Path(), "internal/rng")
}

// rngCalls returns every method call whose receiver is exactly the rng
// parameter object.
func rngCalls(pass *Pass, fn *ast.FuncDecl, rObj types.Object) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == rObj {
			out = append(out, call)
		}
		return true
	})
	return out
}

// rngEscapes reports whether the rng parameter is used anywhere other
// than as the receiver of its own method calls — passed to another
// function, stored, aliased — which makes draw counting unsound.
func rngEscapes(pass *Pass, fn *ast.FuncDecl, rObj types.Object) bool {
	receiverUse := make(map[*ast.Ident]bool)
	for _, call := range rngCalls(pass, fn, rObj) {
		if id, ok := call.Fun.(*ast.SelectorExpr).X.(*ast.Ident); ok {
			receiverUse[id] = true
		}
	}
	escapes := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == rObj && !receiverUse[id] {
			escapes = true
		}
		return !escapes
	})
	return escapes
}

// posSpan is one node's position extent.
type posSpan struct{ start, end token.Pos }

// conditionalRanges returns the position spans of fn's branches, loops,
// and function literals: a draw inside one executes a data-dependent
// number of times, so it defeats static counting.
func conditionalRanges(fn *ast.FuncDecl) []posSpan {
	var out []posSpan
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			out = append(out, posSpan{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

func inConditional(ranges []posSpan, pos token.Pos) bool {
	for _, r := range ranges {
		if pos >= r.start && pos < r.end {
			return true
		}
	}
	return false
}

// countScalarDraws tallies the unconditional word-at-a-time draws of a
// scalar model method; one call is one per-row draw (the scalar method
// runs once per particle).
func countScalarDraws(pass *Pass, fn *ast.FuncDecl) drawCount {
	rObj := rngParam(pass, fn)
	if rObj == nil {
		return drawCount{ok: true}
	}
	if rngEscapes(pass, fn, rObj) {
		return drawCount{}
	}
	cond := conditionalRanges(fn)
	c := drawCount{ok: true}
	for _, call := range rngCalls(pass, fn, rObj) {
		name := call.Fun.(*ast.SelectorExpr).Sel.Name
		stream, isScalar := scalarDraws[name]
		if !isScalar || inConditional(cond, call.Pos()) {
			return drawCount{} // block draw, state mutation, or conditional draw
		}
		if stream == "normal" {
			c.normals++
		} else {
			c.uniforms++
		}
	}
	return c
}

// countVecDraws tallies the per-row block draws of a vectorized method:
// each unconditional block request whose length is a static multiple of
// the row count contributes that multiple.
func countVecDraws(pass *Pass, fn *ast.FuncDecl) drawCount {
	rObj := rngParam(pass, fn)
	if rObj == nil {
		return drawCount{ok: true}
	}
	if rngEscapes(pass, fn, rObj) {
		return drawCount{}
	}
	cond := conditionalRanges(fn)
	rows := rowExprs(pass, fn)
	c := drawCount{ok: true}
	for _, call := range rngCalls(pass, fn, rObj) {
		name := call.Fun.(*ast.SelectorExpr).Sel.Name
		stream, isBlock := blockDraws[name]
		if !isBlock || inConditional(cond, call.Pos()) {
			return drawCount{}
		}
		if len(call.Args) != 1 {
			return drawCount{}
		}
		// Fill variants take a destination slice whose length is not
		// statically visible here; Normals takes the count.
		if name == "FillNormals" || name == "FillUniforms" {
			return drawCount{}
		}
		mult, ok := rows.perRowMultiple(call.Args[0])
		if !ok {
			return drawCount{}
		}
		if stream == "normal" {
			c.normals += mult
		} else {
			c.uniforms += mult
		}
	}
	return c
}

// rowInfo resolves which expressions denote the span's row count inside
// one vectorized method: `len(col)` for a column of a [][]float64
// parameter, or a local variable assigned such a length.
type rowInfo struct {
	pass    *Pass
	rowVars map[types.Object]bool // n := len(dst[0])
	columns map[types.Object]bool // x0 := x[0]
	params  map[types.Object]bool // [][]float64 parameters
}

func rowExprs(pass *Pass, fn *ast.FuncDecl) *rowInfo {
	ri := &rowInfo{
		pass:    pass,
		rowVars: make(map[types.Object]bool),
		columns: make(map[types.Object]bool),
		params:  make(map[types.Object]bool),
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if s, ok := obj.Type().(*types.Slice); ok {
				if _, ok := s.Elem().(*types.Slice); ok {
					ri.params[obj] = true
				}
			}
		}
	}
	// One linear scan is enough: the vectorized bodies define their
	// row-count and column locals before use.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := ri.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = ri.pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if ri.isColumn(assign.Rhs[i]) {
				ri.columns[obj] = true
			}
			if ri.isRowCount(assign.Rhs[i]) {
				ri.rowVars[obj] = true
			}
		}
		return true
	})
	return ri
}

// isColumn reports whether e denotes one state-dimension column of a
// [][]float64 parameter (x[0], src[c][:n], or an alias of one).
func (ri *rowInfo) isColumn(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			obj := ri.pass.TypesInfo.Uses[id]
			return obj != nil && ri.params[obj]
		}
	case *ast.SliceExpr:
		return ri.isColumn(x.X)
	case *ast.Ident:
		obj := ri.pass.TypesInfo.Uses[x]
		return obj != nil && ri.columns[obj]
	}
	return false
}

// isRowCount reports whether e evaluates to the span's row count.
func (ri *rowInfo) isRowCount(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fun, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && fun.Name == "len" && len(x.Args) == 1 {
			return ri.isColumn(x.Args[0])
		}
	case *ast.Ident:
		obj := ri.pass.TypesInfo.Uses[x]
		return obj != nil && ri.rowVars[obj]
	}
	return false
}

// perRowMultiple resolves a block-request length to its per-row
// multiple: n → 1, c*n / n*c with integer literal c → c.
func (ri *rowInfo) perRowMultiple(e ast.Expr) (int, bool) {
	e = ast.Unparen(e)
	if ri.isRowCount(e) {
		return 1, true
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "*" {
		return 0, false
	}
	if c, ok := intLit(bin.X); ok && ri.isRowCount(bin.Y) {
		return c, true
	}
	if c, ok := intLit(bin.Y); ok && ri.isRowCount(bin.X) {
		return c, true
	}
	return 0, false
}

func intLit(e ast.Expr) (int, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(lit.Value)
	if err != nil {
		return 0, false
	}
	return n, true
}

// exprIdentName renders a receiver expression for diagnostics.
func exprIdentName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "r"
}
