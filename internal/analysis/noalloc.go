package analysis

import (
	"go/ast"
	"go/types"
)

// NoallocAnalyzer turns the fused round's 0 allocs/op property from a
// runtime observation (TestRoundBatchSteadyStateAllocs, bench_guard's
// allocs/op ratchet) into a compile-time contract: a function whose doc
// comment carries `//esthera:hotpath noalloc` must show no heap
// allocations in the compiler's escape analysis.
//
// One class of allocation site is sanctioned automatically: calls to
// the internal/device arena allocators (AllocLocal*/Scratch*). Their
// amortized grow path contains a `make` that escape analysis attributes
// to the *caller's* line once the method inlines — but the arena is the
// mechanism that makes the steady state allocation-free, so flagging it
// would force an //esthera:allow onto every legitimate scratch request.
// Any other allocation (a closure capture, a slice that outlives the
// frame, fmt boxing) is reported and needs an explicit allow with a
// rationale.
//
// Escape analysis never reports the heap growth of a builtin append
// (runtime.growslice), so every append in a noalloc function is
// reported too: an amortized append whose capacity settles after
// warm-up carries an allow stating why.
var NoallocAnalyzer = &Analyzer{
	Name:          "noalloc",
	Doc:           "functions marked //esthera:hotpath noalloc must show no heap allocations under escape analysis (-gcflags=-m)",
	Run:           runNoalloc,
	Filter:        isHotPackage,
	NeedsCompiler: true,
}

// arenaAllocators are the internal/device methods whose inlined grow
// path is a sanctioned allocation site.
var arenaAllocators = map[string]bool{
	"AllocLocalF64": true,
	"AllocLocalU32": true,
	"AllocLocalInt": true,
	"ScratchF64":    true,
	"ScratchInt":    true,
}

func runNoalloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasContract(fn, "noalloc") {
				continue
			}
			file := declFile(pass, fn)
			start := pass.Fset.Position(fn.Pos()).Line
			end := pass.Fset.Position(fn.End()).Line
			sanctioned := arenaCallLines(pass, fn)
			for _, finding := range findingsWithin(pass.Escapes, file, start, end) {
				if sanctioned[finding.Pos.Line] {
					continue
				}
				pos := findingPos(pass, finding)
				if !pos.IsValid() {
					pos = fn.Pos()
				}
				pass.Reportf(pos, "heap allocation in //esthera:hotpath noalloc function %s: %s", funcDisplayName(fn), finding.Message)
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
					pass.Reportf(call.Pos(), "append in //esthera:hotpath noalloc function %s can grow its slice on the heap, which escape analysis does not report", funcDisplayName(fn))
				}
				return true
			})
		}
	}
	return nil
}

// isBuiltin reports whether fun names the predeclared function name.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// arenaCallLines returns the source lines of fn's body that call a
// device arena allocator.
func arenaCallLines(pass *Pass, fn *ast.FuncDecl) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isPkgFunc(pass.TypesInfo.ObjectOf(sel.Sel), "internal/device", arenaAllocators) {
			lines[pass.Fset.Position(call.Pos()).Line] = true
		}
		return true
	})
	return lines
}
