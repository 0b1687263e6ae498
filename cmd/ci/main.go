// Command ci runs the repository's source and documentation checks in one
// pass and fails on any problem it prints. Each package is parsed once.
//
//  1. API surface: the root package's exported declarations — functions,
//     methods on exported receivers, types with their exported fields,
//     constants and variables — rendered one canonical line each, must
//     equal API_SURFACE.txt. An unintended breaking change (a removed
//     function, a changed signature, a renamed field) fails the build; a
//     deliberate one regenerates the file with -write-surface and shows up
//     in review.
//  2. Doc coverage: every exported symbol (and exported method on an
//     exported receiver) of the root package and of internalPackages
//     carries a doc comment.
//  3. Markdown links: every relative link target in every *.md file exists
//     (external http(s)/mailto links and in-page anchors are not followed).
//  4. Named options and errors exist: every unqualified backticked `With…`
//     or `Err…` name in README.md, ARCHITECTURE.md and docs/*.md is declared
//     in the root package or one of internalPackages. The history files
//     (CHANGES.md, ROADMAP.md) are not scanned.
//  5. Go comments name existing docs: every *.md path a comment in a Go
//     file (tests included) names exists, relative to the repository root
//     or to the file's directory.
//
// Usage:
//
//	go run ./cmd/ci [-dir .]
//	go run ./cmd/ci -write-surface
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"log"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// surfaceFile is the committed API surface of the root package.
const surfaceFile = "API_SURFACE.txt"

// internalPackages are the internal package dirs, relative to the
// repository root, whose exported symbols must all be documented and whose
// options and errors the docs may name.
var internalPackages = []string{"internal/core", "internal/clique", "internal/workload", "internal/service"}

func main() {
	log.SetFlags(0)
	var (
		dir   = flag.String("dir", ".", "repository root")
		write = flag.Bool("write-surface", false, "regenerate "+surfaceFile+" from the root package instead of checking it")
	)
	flag.Parse()

	problems, err := check(*dir, internalPackages, *write)
	if err != nil {
		log.Fatalf("ci: %v", err)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			log.Print(p)
		}
		log.Fatalf("ci: %d problem(s)", len(problems))
	}
	fmt.Println("ci: API surface, doc coverage, markdown links, documented option and error names and doc paths in comments OK")
}

// check runs every rule on the repository at root and returns the problems
// found. With writeSurface the surface file is rewritten instead of
// compared.
func check(root string, internal []string, writeSurface bool) ([]string, error) {
	fset := token.NewFileSet()
	files, err := parsePackage(fset, root)
	if err != nil {
		return nil, err
	}
	var problems []string
	surface := strings.Join(packageSurface(fset, files), "\n") + "\n"
	surfacePath := filepath.Join(root, surfaceFile)
	if writeSurface {
		if err := os.WriteFile(surfacePath, []byte(surface), 0o644); err != nil {
			return nil, err
		}
	} else {
		want, err := os.ReadFile(surfacePath)
		if err != nil {
			return nil, err
		}
		problems = append(problems, diffSurface(string(want), surface)...)
	}

	declared := documentedSymbols(files)
	problems = append(problems, undocumented(declared, "the root package")...)
	for _, pkg := range internal {
		files, err := parsePackage(fset, filepath.Join(root, filepath.FromSlash(pkg)))
		if err != nil {
			return nil, err
		}
		symbols := documentedSymbols(files)
		problems = append(problems, undocumented(symbols, pkg)...)
		maps.Copy(declared, symbols)
	}

	linkProblems, err := checkMarkdownLinks(root)
	if err != nil {
		return nil, err
	}
	problems = append(problems, linkProblems...)
	nameProblems, err := checkDocNames(root, declared)
	if err != nil {
		return nil, err
	}
	problems = append(problems, nameProblems...)
	pathProblems, err := checkCommentDocPaths(root)
	if err != nil {
		return nil, err
	}
	return append(problems, pathProblems...), nil
}

// parsePackage parses, with comments, every non-test file of the library
// package in dir.
func parsePackage(fset *token.FileSet, dir string) ([]*ast.File, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for name, pkg := range pkgs {
		if name == "main" || strings.HasSuffix(name, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files, nil
}

// diffSurface lists the lines that differ between the committed surface
// and the parsed one.
func diffSurface(want, got string) []string {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	var problems []string
	for _, l := range wantLines {
		if l != "" && !slices.Contains(gotLines, l) {
			problems = append(problems, fmt.Sprintf("%s: removed from the package: %s", surfaceFile, l))
		}
	}
	for _, l := range gotLines {
		if l != "" && !slices.Contains(wantLines, l) {
			problems = append(problems, fmt.Sprintf("%s: not listed: %s", surfaceFile, l))
		}
	}
	if problems != nil {
		problems = append(problems, "if the API change is intentional, regenerate with: go run ./cmd/ci -write-surface")
	}
	return problems
}

// packageSurface returns the exported declarations of files as sorted,
// canonicalised one-per-entry strings.
func packageSurface(fset *token.FileSet, files []*ast.File) []string {
	var entries []string
	for _, file := range files {
		for _, decl := range file.Decls {
			entries = append(entries, declSurface(fset, decl)...)
		}
	}
	sort.Strings(entries)
	return entries
}

// declSurface renders the exported parts of one top-level declaration.
func declSurface(fset *token.FileSet, decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || (d.Recv != nil && !ast.IsExported(receiverTypeName(d.Recv.List[0].Type))) {
			return nil
		}
		fn := *d
		fn.Body = nil
		fn.Doc = nil
		return []string{render(fset, &fn)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				ts := *s
				ts.Doc, ts.Comment = nil, nil
				ts.Type = filterType(s.Type)
				one := &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&ts}}
				out = append(out, render(fset, one))
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					entry := d.Tok.String() + " " + name.Name
					if s.Type != nil {
						entry += " " + render(fset, s.Type)
					} else if i < len(s.Values) {
						entry += " = " + render(fset, s.Values[i])
					}
					out = append(out, entry)
				}
			}
		}
		return out
	}
	return nil
}

// filterType strips unexported members from struct and interface types so
// the surface only tracks what callers can rely on.
func filterType(t ast.Expr) ast.Expr {
	switch x := t.(type) {
	case *ast.StructType:
		if x.Fields == nil {
			return t
		}
		kept := &ast.FieldList{}
		for _, f := range x.Fields.List {
			nf := *f
			nf.Doc, nf.Comment = nil, nil
			if len(f.Names) == 0 { // embedded field
				kept.List = append(kept.List, &nf)
				continue
			}
			var names []*ast.Ident
			for _, n := range f.Names {
				if n.IsExported() {
					names = append(names, n)
				}
			}
			if len(names) == 0 {
				continue
			}
			nf.Names = names
			kept.List = append(kept.List, &nf)
		}
		return &ast.StructType{Struct: x.Struct, Fields: kept}
	case *ast.InterfaceType:
		if x.Methods == nil {
			return t
		}
		kept := &ast.FieldList{}
		for _, m := range x.Methods.List {
			nm := *m
			nm.Doc, nm.Comment = nil, nil
			if len(m.Names) == 0 || m.Names[0].IsExported() {
				kept.List = append(kept.List, &nm)
			}
		}
		return &ast.InterfaceType{Interface: x.Interface, Methods: kept}
	default:
		return t
	}
}

// render prints one node in canonical single-spaced form, so the committed
// file diffs one declaration per line.
func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<unprintable: %v>", err)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}

// documentedSymbols maps every exported top-level symbol (and exported
// method on an exported receiver, as "Recv.Name") of files to whether it
// carries a doc comment. A symbol declared in a group counts as documented
// if either the group or its own spec is documented.
func documentedSymbols(files []*ast.File) map[string]bool {
	out := make(map[string]bool)
	record := func(name string, documented bool) {
		// A symbol declared in multiple build contexts keeps "documented" if
		// any declaration documents it.
		out[name] = out[name] || documented
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := receiverTypeName(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					name = recv + "." + name
				}
				if ast.IsExported(d.Name.Name) {
					record(name, d.Doc.Text() != "")
				}
			case *ast.GenDecl:
				groupDoc := d.Doc.Text() != ""
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							record(s.Name.Name, groupDoc || s.Doc.Text() != "" || s.Comment.Text() != "")
						}
					case *ast.ValueSpec:
						specDoc := s.Doc.Text() != "" || s.Comment.Text() != ""
						for _, id := range s.Names {
							// In a grouped const/var block every spec needs
							// its own comment; the group comment alone only
							// covers a single-spec declaration.
							if id.IsExported() {
								record(id.Name, specDoc || (groupDoc && len(d.Specs) == 1))
							}
						}
					}
				}
			}
		}
	}
	return out
}

// receiverTypeName unwraps *T, T and generic receivers to the type name.
func receiverTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverTypeName(t.X)
	case *ast.IndexExpr:
		return receiverTypeName(t.X)
	case *ast.IndexListExpr:
		return receiverTypeName(t.X)
	default:
		return ""
	}
}

// undocumented reports, sorted, every symbol of pkg that lacks a doc
// comment.
func undocumented(documented map[string]bool, pkg string) []string {
	var problems []string
	for sym, ok := range documented {
		if !ok {
			problems = append(problems, fmt.Sprintf("exported symbol %q of %s has no doc comment", sym, pkg))
		}
	}
	sort.Strings(problems)
	return problems
}

// linkPattern matches markdown link and image targets: [text](target) and
// ![alt](target).
var linkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks walks the tree for *.md files and verifies every
// relative link target exists.
func checkMarkdownLinks(root string) ([]string, error) {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range linkPattern.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip an in-page anchor from a file target.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, statErr := os.Stat(resolved); statErr != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q (resolved %s)", path, m[1], resolved))
			}
		}
		return nil
	})
	return problems, err
}

// codeSpanPattern matches an inline code span; docNamePattern matches an
// option or error name at its start, so a qualified span
// (`clique.WithSharedCache`) does not count.
var (
	codeSpanPattern = regexp.MustCompile("`([^`\n]+)`")
	docNamePattern  = regexp.MustCompile(`^(?:With|Err)[A-Z][A-Za-z0-9_]*`)
)

// checkDocNames reports every unqualified backticked With…/Err… name in
// README.md, ARCHITECTURE.md and docs/*.md that declared does not contain.
// Fenced code blocks are skipped.
func checkDocNames(root string, declared map[string]bool) ([]string, error) {
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md")) // a fixed, well-formed pattern
	docs = append([]string{filepath.Join(root, "README.md"), filepath.Join(root, "ARCHITECTURE.md")}, docs...)
	var problems []string
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range codeSpanPattern.FindAllStringSubmatch(line, -1) {
				if name := docNamePattern.FindString(span[1]); name != "" && !declared[name] {
					problems = append(problems, fmt.Sprintf("%s:%d: `%s` is not declared in the root package or the internal packages (removed or renamed?)", path, i+1, name))
				}
			}
		}
	}
	return problems, nil
}

// commentDocPattern matches a *.md path in a comment, starting at a word
// boundary that is not inside a URL or a longer path.
var commentDocPattern = regexp.MustCompile("(?:^|[\\s(`\"'])([A-Za-z0-9_][A-Za-z0-9_./-]*\\.md)\\b")

// checkCommentDocPaths walks the tree for Go files (skipping hidden
// directories such as the benchmark's build cache, and testdata) and
// reports every *.md path named in a comment that exists neither relative
// to root nor relative to the file's directory.
func checkCommentDocPaths(root string) ([]string, error) {
	var problems []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, m := range commentDocPattern.FindAllStringSubmatch(c.Text, -1) {
					rel := filepath.FromSlash(m[1])
					if exists(filepath.Join(root, rel)) || exists(filepath.Join(filepath.Dir(path), rel)) {
						continue
					}
					problems = append(problems, fmt.Sprintf("%s: comment names %s, which is not in the tree", fset.Position(c.Pos()), m[1]))
				}
			}
		}
		return nil
	})
	return problems, err
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
