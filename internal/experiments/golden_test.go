package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current output")

// TestRunAllGolden pins the full `experiments -run all` output byte for
// byte, so a refactor of any algorithm the experiments run cannot move a
// published table silently. Regenerate with:
// go test ./internal/experiments -run Golden -update
func TestRunAllGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
