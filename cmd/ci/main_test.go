package main

import (
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes files (slash-separated paths relative to root) under
// root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckDocNamesFlagsRemovedOption pins rule 4: a doc naming an option
// that no parsed package declares fails, qualified names and fenced code are
// not checked, and the history files are not scanned.
func TestCheckDocNamesFlagsRemovedOption(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"lib.go":          "package lib\n\n// WithPlanCache is an option.\nfunc WithPlanCache(int) {}\n\n// ErrClosed is an error.\nvar ErrClosed error\n",
		"README.md":       "Use `WithPlanCache(8)`; `WithChargedCensus` is implied.\n\n```go\nWithGone()\n`WithGone`\n```\n",
		"ARCHITECTURE.md": "Fails with `ErrClosed`, or `clique.WithSharedCache` upstream.\n",
		"docs/X.md":       "Check `errors.Is(err, ErrGone)` and `ErrStale`.\n",
		"CHANGES.md":      "Removed `WithChargedCensus`.\n",
	})

	files, err := parsePackage(token.NewFileSet(), root)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkDocNames(root, documentedSymbols(files))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(problems, "\n")
	if len(problems) != 2 || !strings.Contains(got, "README.md:1: `WithChargedCensus`") || !strings.Contains(got, "X.md:1: `ErrStale`") {
		t.Fatalf("problems:\n%s\nwant exactly README.md:1 WithChargedCensus and docs/X.md:1 ErrStale", got)
	}
}

// seededRepo is a minimal repository that passes every rule once its
// surface file has been written.
var seededRepo = map[string]string{
	"lib.go": "package lib\n\n// Clique is a handle.\ntype Clique struct{ N int; spare int }\n\n" +
		"// Route routes.\nfunc (c *Clique) Route(msgs []int) error { return nil }\n\n" +
		"// New builds a handle.\nfunc New(n int) *Clique { return nil }\n",
	"README.md":       "See [the docs](docs/X.md).\n",
	"ARCHITECTURE.md": "\n",
	"docs/X.md":       "\n",
}

// checkSeeded writes seededRepo and its surface, applies edit (file name ->
// new content) and runs every rule.
func checkSeeded(t *testing.T, edit map[string]string) []string {
	t.Helper()
	return checkSeededFrom(t, seededRepo, edit)
}

// checkSeededFrom is checkSeeded on the repository base.
func checkSeededFrom(t *testing.T, base, edit map[string]string) []string {
	t.Helper()
	root := t.TempDir()
	writeTree(t, root, base)
	if problems, err := check(root, nil, true); err != nil || len(problems) != 0 {
		t.Fatalf("seeded repository: %v %q", err, problems)
	}
	writeTree(t, root, edit)
	problems, err := check(root, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

// TestCheckFlagsChangedSignature pins rule 1: the seeded repository passes
// against its own surface, and a changed exported signature fails it with
// both the committed and the parsed line named.
func TestCheckFlagsChangedSignature(t *testing.T) {
	if problems := checkSeeded(t, nil); len(problems) != 0 {
		t.Fatalf("unchanged repository: %q", problems)
	}
	lib := strings.Replace(seededRepo["lib.go"], "Route(msgs []int) error", "Route(msgs []int, strict bool) error", 1)
	got := strings.Join(checkSeeded(t, map[string]string{"lib.go": lib}), "\n")
	if !strings.Contains(got, "removed from the package: func (c *Clique) Route(msgs []int) error") ||
		!strings.Contains(got, "not listed: func (c *Clique) Route(msgs []int, strict bool) error") {
		t.Fatalf("changed signature not reported:\n%s", got)
	}
}

// TestCheckFlagsUndocumentedRootSymbol pins rule 2 on the root package: an
// exported function without a doc comment fails the check (its new surface
// line fails rule 1 as well).
func TestCheckFlagsUndocumentedRootSymbol(t *testing.T) {
	lib := seededRepo["lib.go"] + "\nfunc Close() error { return nil }\n"
	got := strings.Join(checkSeeded(t, map[string]string{"lib.go": lib}), "\n")
	if !strings.Contains(got, `exported symbol "Close" of the root package has no doc comment`) {
		t.Fatalf("undocumented root symbol not reported:\n%s", got)
	}
}

// TestCheckFlagsMissingDocPathInComment pins rule 5: a Go comment (in a
// library or a test file) naming a *.md path that is not in the tree fails
// the check, while paths that exist relative to the root or to the file's
// directory, and URLs, pass.
func TestCheckFlagsMissingDocPathInComment(t *testing.T) {
	lib := seededRepo["lib.go"] + "\n// gone cites DESIGN.md; docs/X.md and https://example.com/GONE.md are fine.\nvar gone int\n"
	got := checkSeeded(t, map[string]string{
		"lib.go":          lib,
		"sub/sub_test.go": "package sub\n\n// See README.md, sub/NOTES.md and NOTES.md but not docs/Y.md.\n",
		"sub/NOTES.md":    "\n",
	})
	joined := strings.Join(got, "\n")
	if len(got) != 2 || !strings.Contains(joined, "lib.go:12:1: comment names DESIGN.md") ||
		!strings.Contains(joined, "sub_test.go:3:1: comment names docs/Y.md") {
		t.Fatalf("problems:\n%s\nwant exactly DESIGN.md in lib.go and docs/Y.md in sub/sub_test.go", joined)
	}
}

// TestCheckSeesThroughModuleAlias pins rule 1 on aliases: an exported alias
// of a type declared in another package of the module is listed as that
// type's declaration and its exported methods, so a field added behind the
// alias fails the check as a changed root type would.
func TestCheckSeesThroughModuleAlias(t *testing.T) {
	const target = "package wire\n\n// Msg is a message.\ntype Msg struct{ Src int; hop int }\n\n" +
		"// Less orders messages.\nfunc (m Msg) Less(o Msg) bool { return m.Src < o.Src }\n\nfunc (m Msg) hidden() {}\n"
	base := maps.Clone(seededRepo)
	maps.Copy(base, map[string]string{
		"go.mod":                "module example.com/lib\n",
		"alias.go":              "package lib\n\nimport \"example.com/lib/internal/wire\"\n\n// Msg is the protocol's message.\ntype Msg = wire.Msg\n",
		"internal/wire/wire.go": target,
	})

	root := t.TempDir()
	writeTree(t, root, base)
	fset := token.NewFileSet()
	files, err := parsePackage(fset, root)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := packageSurface(fset, root, files)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(entries, "\n")
	if !strings.Contains(got, "type Msg struct { Src int }") || !strings.Contains(got, "func (m Msg) Less(o Msg) bool") ||
		strings.Contains(got, "wire.Msg") || strings.Contains(got, "hidden") {
		t.Fatalf("alias surface:\n%s\nwant Msg's exported field and method, not the alias itself", got)
	}

	grown := strings.Replace(target, "Src int; hop int", "Src int; Dst int; hop int", 1)
	problems := strings.Join(checkSeededFrom(t, base, map[string]string{"internal/wire/wire.go": grown}), "\n")
	if !strings.Contains(problems, "removed from the package: type Msg struct { Src int }") ||
		!strings.Contains(problems, "not listed: type Msg struct { Src int Dst int }") {
		t.Fatalf("field added behind the alias not reported:\n%s", problems)
	}
}
