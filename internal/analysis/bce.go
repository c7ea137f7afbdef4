package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// BCEAnalyzer is the bounds-check ratchet: for every function marked
// `//esthera:hotpath bce` it reads the SSA prove pass's retained-check
// diagnostics (-d=ssa/check_bce) and classifies each as
//
//   - setup-class: outside any loop in the function body — slice-header
//     construction, reslicing, parameter validation. These run once per
//     call and are sanctioned unconditionally;
//   - loop-class: inside a for/range statement — a check the column
//     kernels pay once per element. These are ratcheted: a function may
//     retain at most as many as its entry in scripts/bce_baseline.txt
//     records (absent entry = zero).
//
// Known residuals (the strided RNG reads in arm's StepVec, where the
// prover can't connect the block length to the loop bound) live in the
// baseline with their audited counts; any NEW loop-class check — a
// refactor that re-grew a per-element bound — fails the sweep. Refresh
// the baseline with `make vet-ratchet` (esthera-vet -ratchet) after
// deliberate, reviewed changes.
//
// A baseline entry for an analyzed package that names no
// //esthera:hotpath bce function of that package is itself a finding:
// a budget must not outlive its function, or a later function of the
// same name would inherit it.
var BCEAnalyzer = &Analyzer{
	Name:          "bce",
	Doc:           "functions marked //esthera:hotpath bce must not grow new per-element-loop bounds checks (ratcheted against scripts/bce_baseline.txt, whose every entry must name such a function)",
	Run:           runBCE,
	Filter:        isHotPackage,
	NeedsCompiler: true,
}

func runBCE(pass *Pass) error {
	annotated := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasContract(fn, "bce") {
				continue
			}
			key := funcKey(pass, fn)
			annotated[key] = true
			file := declFile(pass, fn)
			start := pass.Fset.Position(fn.Pos()).Line
			end := pass.Fset.Position(fn.End()).Line
			loops := loopLineRanges(pass, fn)
			var loopClass []CompilerFinding
			for _, finding := range findingsWithin(pass.Bounds, file, start, end) {
				if inAnyRange(loops, finding.Pos.Line) {
					loopClass = append(loopClass, finding)
				}
			}
			if pass.Config.BCERecord != nil {
				if len(loopClass) > 0 {
					pass.Config.BCERecord[key] = len(loopClass)
				}
				continue
			}
			budget := pass.Config.BCEBaseline[key]
			if len(loopClass) <= budget {
				continue
			}
			for _, finding := range loopClass {
				pos := findingPos(pass, finding)
				if !pos.IsValid() {
					pos = fn.Pos()
				}
				pass.Reportf(pos, "retained bounds check in per-element loop of %s (%d found, baseline %d): %s — hoist or restructure the access, or refresh scripts/bce_baseline.txt with `make vet-ratchet` if the check is a reviewed residual", funcDisplayName(fn), len(loopClass), budget, finding.Message)
			}
		}
	}
	if pass.Config.BCERecord == nil && len(pass.Files) > 0 {
		prefix := pass.Pkg.Path() + "."
		var stale []string
		for key := range pass.Config.BCEBaseline {
			// Function names never contain '/', so a subpackage's
			// entries do not match this package's prefix.
			if name, ok := strings.CutPrefix(key, prefix); ok && !strings.Contains(name, "/") && !annotated[key] {
				stale = append(stale, key)
			}
		}
		sort.Strings(stale)
		for _, key := range stale {
			pass.Reportf(pass.Files[0].Package, "stale budget in scripts/bce_baseline.txt: %s names no //esthera:hotpath bce function of this package — refresh the baseline with `make vet-ratchet`", key)
		}
	}
	return nil
}

// lineRange is an inclusive source-line interval.
type lineRange struct{ start, end int }

// loopLineRanges returns the line ranges of every for/range statement
// in fn's body.
func loopLineRanges(pass *Pass, fn *ast.FuncDecl) []lineRange {
	var out []lineRange
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, lineRange{
				start: pass.Fset.Position(n.Pos()).Line,
				end:   pass.Fset.Position(n.End()).Line,
			})
		}
		return true
	})
	return out
}

func inAnyRange(rs []lineRange, line int) bool {
	for _, r := range rs {
		if line >= r.start && line <= r.end {
			return true
		}
	}
	return false
}
