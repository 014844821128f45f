package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenMatrix is the frozen flag matrix: the refactor onto the service
// layer must keep every one of these invocations byte-identical.
var goldenMatrix = []struct {
	name string
	args []string
}{
	{"quick_e01", []string{"-quick", "-runs", "60", "-sup", "40", "-exp", "E01"}},
	{"quick_e04_markdown", []string{"-quick", "-runs", "60", "-sup", "40", "-exp", "E04", "-format", "markdown"}},
	{"quick_e04_seed0", []string{"-quick", "-seed", "0", "-runs", "60", "-sup", "40", "-exp", "E04"}},
	{"quick_e05_parallel1", []string{"-quick", "-runs", "60", "-sup", "40", "-exp", "E05", "-parallel", "1"}},
	{"quick_e15", []string{"-quick", "-runs", "60", "-sup", "40", "-exp", "E15"}},
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it wrote.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	defer func() { os.Stdout = old }()
	fn()
	_ = w.Close()
	out := <-done
	os.Stdout = old
	return out
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenOutput pins the command's stdout for the frozen flag matrix.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range goldenMatrix {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			out := captureStdout(t, func() { code = run(tc.args) })
			if code != 0 {
				t.Fatalf("exit code %d\noutput:\n%s", code, out)
			}
			checkGolden(t, tc.name, out)
		})
	}
}
