package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/compress"
)

var update = flag.Bool("update", false, "rewrite the -compress entry of the package doc from the registry")

// compressDoc renders the package doc's -compress entry from the same
// registry-derived text the flag prints.
func compressDoc() string {
	var lines []string
	line := ""
	for _, w := range strings.Fields(compressUsage + " (default " + compress.DefaultOnline + ")") {
		if line != "" && len(line)+1+len(w) > 54 {
			lines = append(lines, line)
			line = ""
		}
		if line != "" {
			line += " "
		}
		line += w
	}
	var b strings.Builder
	for i, l := range append(lines, line) {
		if i == 0 {
			b.WriteString("//\t-compress string  " + l + "\n")
		} else {
			b.WriteString("//\t                  " + l + "\n")
		}
	}
	return b.String()
}

// TestCompressDocMatchesRegistry keeps the package doc's spec list in step
// with the registry. Regenerate with:
// go test ./cmd/trajserver -run CompressDoc -update
func TestCompressDocMatchesRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	start := strings.Index(s, "//\t-compress string")
	end := strings.Index(s, "//\t-cell ")
	if start < 0 || end < start {
		t.Fatal("main.go doc has no -compress entry followed by -cell")
	}
	want := compressDoc()
	if *update {
		s = s[:start] + want + s[end:]
		if err := os.WriteFile("main.go", []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := s[start:end]; got != want {
		t.Fatalf("-compress doc is stale; run with -update.\n got:\n%s\nwant:\n%s", got, want)
	}
}

// The flag text stays on one line, so `trajserver -h` ends it with the
// default that tools parse.
func TestCompressUsageOneLine(t *testing.T) {
	if strings.Contains(compressUsage, "\n") || strings.Contains(compressUsage, "(default") {
		t.Fatalf("usage %q breaks the one-line flag listing", compressUsage)
	}
}
