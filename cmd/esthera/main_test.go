package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"esthera/internal/experiments"
)

// TestRegistryOrder checks that experiment names are unique and that
// run without names takes the whole registry in order.
func TestRegistryOrder(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, e := range experiments.Registry {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
		names = append(names, e.Name)
	}
	all, err := experiments.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range all {
		got = append(got, e.Name)
	}
	if !slices.Equal(got, names) {
		t.Fatalf("run without names takes %v, want the registry order %v", got, names)
	}
}

// TestRunOut checks that -out writes one .txt/.csv pair per table plus
// REPORT.txt, and that REPORT.txt holds what was printed.
func TestRunOut(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "report")
	var stdout strings.Builder
	if err := run([]string{"run", "-out", dir, "-steps", "12", "table3", "fig8"}, &stdout); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	want := []string{"REPORT.txt", "fig8.csv", "fig8.txt", "table3.csv", "table3.txt"}
	if !slices.Equal(files, want) {
		t.Fatalf("-out wrote %v, want %v", files, want)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != 13 {
		t.Errorf("fig8.csv has %d lines, want a header and 12 steps", lines)
	}
	report, err := os.ReadFile(filepath.Join(dir, "REPORT.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(report), stdout.String()) {
		t.Errorf("REPORT.txt does not end with the printed output:\n%s", report)
	}
	for _, title := range []string{"== Table III", "== Fig. 8", "high-particle trace:"} {
		if !strings.Contains(stdout.String(), title) {
			t.Errorf("output lacks %q", title)
		}
	}
}

// TestCLIErrorPaths checks that bad command lines fail before any
// experiment runs.
func TestCLIErrorPaths(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"no subcommand", nil},
		{"unknown subcommand", []string{"report"}},
		{"unknown experiment", []string{"run", "fig99"}},
		{"out under a regular file", []string{"run", "-out", filepath.Join(file, "report"), "table3"}},
		{"track unknown model", []string{"track", "-model", "bogus"}},
		{"track retired scheme", []string{"track", "-model", "ungm", "-scheme", "hypercube", "-steps", "1"}},
		{"track retired sequential resampler", []string{"track", "-model", "ungm", "-filter", "sequential", "-resampler", "multinomial", "-steps", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args, io.Discard); err == nil {
				t.Fatal("expected an error, got nil")
			}
		})
	}
}
