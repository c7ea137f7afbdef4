package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates testdata/golden_output.txt from the current tree.
// Regenerate only from a known-good tree: the file pins what every
// deterministic experiment prints, so an unintended change to a filter,
// a stream or a table layout shows up as a diff here.
var update = flag.Bool("update", false, "rewrite testdata/golden_output.txt")

// goldenEntries are the registry entries whose output is a pure function
// of their options. fig3 and fig5 print measured wall-clock columns and
// are left out; the fig4a/b/c, fig6 and fig9 sweeps stay out for their
// run time.
var goldenEntries = []string{
	"table3", "fig4cpu", "fig7", "fig8", "policy", "variants", "estimator",
	"diversity", "precision", "embedded", "closedloop", "cluster-scaling",
	"cluster-failure",
}

// TestGoldenOutput runs each deterministic entry at -runs 1 -steps 10
// and requires its printed output to match the pinned file byte for
// byte.
func TestGoldenOutput(t *testing.T) {
	exps, err := Select(goldenEntries)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range exps {
		fmt.Fprintf(&got, "### %s\n", e.Name)
		if _, err := e.Run(&got, Options{Runs: 1, Steps: 10}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	path := filepath.Join("testdata", "golden_output.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden output recorded (run with -update on a known-good tree): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
