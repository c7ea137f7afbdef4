// Package analysistest runs analyzers over testdata fixtures, in the
// shape of golang.org/x/tools/go/analysis/analysistest: fixture files
// mark expected findings with `// want "regexp"` comments on the
// offending line, and Run fails the test for every unmatched
// expectation and every unexpected diagnostic. Fixtures may import real
// module packages (the barrier fixtures use esthera/internal/device),
// which the loader resolves from the enclosing module.
package analysistest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"esthera/internal/analysis"
)

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantComment extracts the quoted regexps of a `// want "..." "..."`
// comment.
var wantComment = regexp.MustCompile(`//\s*want\s+(.*)`)

// quoted matches one Go-quoted string, interpreted ("...") or raw
// (backquoted), the two forms x/tools analysistest accepts.
var quoted = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// Run applies the analyzer to the fixture package in dir (a directory
// under testdata) and checks its diagnostics against the `// want`
// expectations. The analyzer's package filter is bypassed: fixtures
// exercise the check regardless of their synthetic import path.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	loader, err := analysis.NewLoader(abs)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkg, err := loader.LoadDir(abs, "fixture/"+filepath.Base(abs))
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	// Fixtures get the full harness: a compiler cache so NeedsCompiler
	// analyzers see real escape/BCE diagnostics for the fixture package
	// (it compiles standalone inside the module), the full suite as the
	// allow-name registry, and the fixture's own bce_baseline.txt as the
	// BCE baseline — empty when absent, so every loop-class bounds check
	// in a fixture is a finding.
	known := analysis.KnownNames(analysis.Suite())
	known[a.Name] = true
	baseline, err := analysis.LoadBCEBaseline(filepath.Join(abs, "bce_baseline.txt"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	cfg := &analysis.Config{
		Compiler:    analysis.NewCompilerCache(),
		Known:       known,
		BCEBaseline: baseline,
	}
	diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a}, true, cfg)
	if err != nil {
		t.Fatalf("analysistest: running %s on %s: %v", a.Name, dir, err)
	}

	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	for _, d := range diags {
		if w := matchWant(wants, d.Pos.Filename, d.Pos.Line, d.Message); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// parseWants collects the want expectations of every fixture file.
func parseWants(pkg *analysis.Package) ([]*want, error) {
	var out []*want
	for _, f := range pkg.Files {
		var fileComments []*ast.Comment
		for _, cg := range f.Comments {
			fileComments = append(fileComments, cg.List...)
		}
		for _, c := range fileComments {
			m := wantComment.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			specs := quoted.FindAllString(m[1], -1)
			if len(specs) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment (no quoted regexp)", pos.Filename, pos.Line)
			}
			for _, q := range specs {
				pat, err := strconv.Unquote(q)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
				}
				out = append(out, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
			}
		}
	}
	return out, nil
}

// matchWant finds an unmatched expectation on the diagnostic's line
// whose regexp matches its message.
func matchWant(wants []*want, file string, line int, msg string) *want {
	for _, w := range wants {
		if w.matched || w.line != line || !sameFile(w.file, file) {
			continue
		}
		if w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

// sameFile compares paths by base name, tolerating abs/rel differences.
func sameFile(a, b string) bool {
	return a == b || strings.EqualFold(filepath.Base(a), filepath.Base(b))
}
