// Command doccheck enforces the repository's documentation contract in CI:
//
//  1. Markdown link integrity: every relative link target in every tracked
//     *.md file must exist on disk (external http(s)/mailto links and
//     in-page anchors are not followed).
//  2. Doc coverage: every public symbol recorded in API_SURFACE.txt must
//     carry a doc comment in the root package's source. The API surface
//     file is the authority on what is public (cmd/apisurface keeps it in
//     sync with the code), so a symbol added to the surface without
//     documentation fails the build.
//  3. Internal-package doc coverage: every exported symbol (and exported
//     method on an exported receiver) of the packages listed in -internal
//     must carry a doc comment. Internal packages have no surface file, so
//     the source itself is the authority: exporting a symbol there is a
//     promise to the rest of the repository and must be documented.
//  4. Named options and errors exist: every unqualified backticked `With…`
//     or `Err…` name in README.md, ARCHITECTURE.md and docs/*.md must be
//     declared in the root package or an -internal package. The history
//     files (CHANGES.md, ROADMAP.md) are not scanned.
//
// Usage:
//
//	doccheck [-dir .] [-surface API_SURFACE.txt] [-internal internal/core,...]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	log.SetFlags(0)
	var (
		dir      = flag.String("dir", ".", "repository root")
		surface  = flag.String("surface", "API_SURFACE.txt", "API surface file (relative to -dir)")
		internal = flag.String("internal", "internal/core,internal/clique,internal/workload,internal/service",
			"comma-separated internal package dirs (relative to -dir) whose exported symbols must all be documented; empty disables the check")
	)
	flag.Parse()

	var problems []string
	linkProblems, err := checkMarkdownLinks(*dir)
	if err != nil {
		log.Fatal(err)
	}
	problems = append(problems, linkProblems...)

	rootSymbols, err := documentedSymbols(*dir)
	if err != nil {
		log.Fatal(err)
	}
	docProblems, err := checkDocCoverage(rootSymbols, filepath.Join(*dir, *surface))
	if err != nil {
		log.Fatal(err)
	}
	problems = append(problems, docProblems...)

	declared := maps.Clone(rootSymbols)
	for _, pkg := range strings.Split(*internal, ",") {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		symbols, err := documentedSymbols(filepath.Join(*dir, filepath.FromSlash(pkg)))
		if err != nil {
			log.Fatal(err)
		}
		problems = append(problems, checkInternalDocCoverage(symbols, pkg)...)
		maps.Copy(declared, symbols)
	}

	nameProblems, err := checkDocNames(*dir, declared)
	if err != nil {
		log.Fatal(err)
	}
	problems = append(problems, nameProblems...)

	if len(problems) > 0 {
		for _, p := range problems {
			log.Print(p)
		}
		log.Fatalf("doccheck: %d problem(s)", len(problems))
	}
	fmt.Println("doccheck: markdown links, public-symbol and internal-package doc coverage, documented option and error names OK")
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

// surfaceSymbol extracts the symbol a surface line describes: "Name" for
// funcs/types/vars/consts, "Recv.Name" for methods.
func surfaceSymbol(line string) (string, bool) {
	line = strings.TrimSpace(line)
	if line == "" {
		return "", false
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", false
	}
	switch fields[0] {
	case "func":
		rest := strings.TrimSpace(strings.TrimPrefix(line, "func"))
		if strings.HasPrefix(rest, "(") {
			// Method: func (c *Clique) Close() error — the receiver type is
			// the last whitespace-separated token inside the parens (the
			// variable name, if any, precedes it).
			end := strings.IndexByte(rest, ')')
			if end < 0 {
				return "", false
			}
			recvFields := strings.Fields(rest[1:end])
			if len(recvFields) == 0 {
				return "", false
			}
			recv := strings.TrimPrefix(recvFields[len(recvFields)-1], "*")
			rest = strings.TrimSpace(rest[end+1:])
			name := rest
			if i := strings.IndexByte(name, '('); i >= 0 {
				name = name[:i]
			}
			return recv + "." + strings.TrimSpace(name), true
		}
		name := rest
		if i := strings.IndexByte(name, '('); i >= 0 {
			name = name[:i]
		}
		return strings.TrimSpace(name), true
	case "type", "var", "const":
		return fields[1], true
	default:
		return "", false
	}
}

// checkDocCoverage verifies every symbol listed in the surface file has a doc
// comment in the root package (documented, see documentedSymbols).
func checkDocCoverage(documented map[string]bool, surfacePath string) ([]string, error) {
	data, err := os.ReadFile(surfacePath)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, line := range strings.Split(string(data), "\n") {
		sym, ok := surfaceSymbol(line)
		if !ok {
			continue
		}
		state, known := documented[sym]
		if !known {
			problems = append(problems, fmt.Sprintf("%s: symbol %q not found in package source (stale surface file?)", surfacePath, sym))
			continue
		}
		if !state {
			problems = append(problems, fmt.Sprintf("public symbol %q has no doc comment (listed in %s)", sym, surfacePath))
		}
	}
	return problems, nil
}

// checkInternalDocCoverage reports every exported symbol of internal package
// pkg (documented, see documentedSymbols) that lacks a doc comment. Unlike
// the root package there is no surface file to drive the check: the parsed
// source is the authority.
func checkInternalDocCoverage(documented map[string]bool, pkg string) []string {
	undocumented := make([]string, 0, len(documented))
	for sym, ok := range documented {
		if !ok {
			undocumented = append(undocumented, sym)
		}
	}
	sort.Strings(undocumented)
	problems := make([]string, len(undocumented))
	for i, sym := range undocumented {
		problems[i] = fmt.Sprintf("exported symbol %q of %s has no doc comment", sym, pkg)
	}
	return problems
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
					problems = append(problems, fmt.Sprintf("%s:%d: `%s` is not declared in the root package or the -internal packages (removed or renamed?)", path, i+1, name))
				}
			}
		}
	}
	return problems, nil
}

// documentedSymbols maps every exported top-level symbol (and exported
// method on an exported receiver) of the package in dir to whether it
// carries a doc comment. A symbol declared in a group counts as documented
// if either the group or its own spec is documented.
func documentedSymbols(dir string) (map[string]bool, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	record := func(name string, documented bool) {
		if !ast.IsExported(name) {
			return
		}
		// A symbol declared in multiple build contexts keeps "documented" if
		// any declaration documents it.
		out[name] = out[name] || documented
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil && len(d.Recv.List) == 1 {
						recv := receiverTypeName(d.Recv.List[0].Type)
						if recv == "" || !ast.IsExported(recv) {
							continue
						}
						name = recv + "." + d.Name.Name
						if !ast.IsExported(d.Name.Name) {
							continue
						}
						out[name] = out[name] || d.Doc.Text() != ""
						continue
					}
					record(name, d.Doc.Text() != "")
				case *ast.GenDecl:
					groupDoc := d.Doc.Text() != ""
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							record(s.Name.Name, groupDoc || s.Doc.Text() != "" || s.Comment.Text() != "")
						case *ast.ValueSpec:
							specDoc := s.Doc.Text() != "" || s.Comment.Text() != ""
							for _, id := range s.Names {
								// In a grouped const/var block every spec needs
								// its own comment; the group comment alone only
								// covers a single-spec declaration.
								record(id.Name, specDoc || (groupDoc && len(d.Specs) == 1))
							}
						}
					}
				}
			}
		}
	}
	return out, nil
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
