package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckDocNamesFlagsRemovedOption pins rule 4: a doc naming an option
// that no parsed package declares fails, qualified names and fenced code are
// not checked, and the history files are not scanned.
func TestCheckDocNamesFlagsRemovedOption(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("lib.go", "package lib\n\n// WithPlanCache is an option.\nfunc WithPlanCache(int) {}\n\n// ErrClosed is an error.\nvar ErrClosed error\n")
	write("README.md", "Use `WithPlanCache(8)`; `WithChargedCensus` is implied.\n\n```go\nWithGone()\n`WithGone`\n```\n")
	write("ARCHITECTURE.md", "Fails with `ErrClosed`, or `clique.WithSharedCache` upstream.\n")
	write("docs/X.md", "Check `errors.Is(err, ErrGone)` and `ErrStale`.\n")
	write("CHANGES.md", "Removed `WithChargedCensus`.\n")

	declared, err := documentedSymbols(root)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkDocNames(root, declared)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(problems, "\n")
	if len(problems) != 2 || !strings.Contains(got, "README.md:1: `WithChargedCensus`") || !strings.Contains(got, "X.md:1: `ErrStale`") {
		t.Fatalf("problems:\n%s\nwant exactly README.md:1 WithChargedCensus and docs/X.md:1 ErrStale", got)
	}
}
