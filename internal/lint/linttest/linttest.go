// Package linttest is wmlint's fixture harness — the x/tools
// analysistest idea rebuilt on the standard library. A fixture is a
// directory of Go files under internal/lint/testdata/src/<name>; every
// line that must be flagged carries a trailing
//
//	// want "regexp"
//
// comment (several patterns allowed, each matching one diagnostic on
// that line, in order). Run type-checks the fixture package with stdlib
// imports satisfied from compiler export data, applies the analyzer, and
// fails the test on any missing, unexpected, or pattern-mismatched
// diagnostic — so every fixture doubles as a false-positive guard: an
// unannotated line that triggers the analyzer fails the test exactly
// like an annotated line that doesn't. A module analyzer's fixture is a
// whole module instead, with its own go.mod; see RunModule.
package linttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ovhweather/internal/lint"
)

// Run applies the analyzer to the fixture package in dir (a path under
// testdata) and checks its diagnostics against the // want comments.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	compare(t, pkg.Fset, pkg.Files, diags)
}

// RunModule applies a module analyzer to every package of the fixture
// module in dir (a path under testdata holding a go.mod), with the modules
// nested in it as callers, and checks the diagnostics against the // want
// comments of the module's own packages.
func RunModule(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture module %s has no packages", dir)
	}
	diags, err := lint.Check(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	compare(t, pkgs[0].Fset, files, diags)
}

// compare fails the test on every diagnostic the files' // want comments
// do not expect and every expectation no diagnostic meets.
func compare(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)

	// Index diagnostics by file:line, in order.
	got := map[string][]string{}
	for _, d := range diags {
		key := lineKey(fset.Position(d.Pos))
		got[key] = append(got[key], d.Message)
	}

	for key, patterns := range wants {
		msgs := got[key]
		if len(msgs) != len(patterns) {
			t.Errorf("%s: want %d diagnostic(s), got %d: %q", key, len(patterns), len(msgs), msgs)
			continue
		}
		for i, pat := range patterns {
			if !pat.MatchString(msgs[i]) {
				t.Errorf("%s: diagnostic %q does not match %q", key, msgs[i], pat)
			}
		}
	}
	var unexpected []string
	for key, msgs := range got {
		if _, ok := wants[key]; !ok {
			for _, m := range msgs {
				unexpected = append(unexpected, fmt.Sprintf("%s: unexpected diagnostic: %s", key, m))
			}
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Error(u)
	}
}

// lineKey names a line by its file's last two path elements, which tell
// apart the same file name in two fixture packages.
func lineKey(p token.Position) string {
	dir, file := filepath.Split(p.Filename)
	return fmt.Sprintf("%s:%d", filepath.Join(filepath.Base(dir), file), p.Line)
}

var wantRe = regexp.MustCompile(`// want((?: +(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)`)

// collectWants parses the // want comments into per-line expectation
// lists, keyed "file.go:line".
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				key := lineKey(fset.Position(c.Pos()))
				for _, tok := range tokenizeWants(m[1]) {
					pat, err := strconv.Unquote(tok)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", key, tok, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// tokenizeWants splits the quoted pattern list of a want comment.
func tokenizeWants(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var end int
		switch s[0] {
		case '"':
			end = 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			end++
		case '`':
			end = strings.IndexByte(s[1:], '`') + 2
		default:
			return out
		}
		if end > len(s) {
			end = len(s)
		}
		out = append(out, s[:end])
		s = strings.TrimSpace(s[end:])
	}
	return out
}

// --- fixture loading ----------------------------------------------------

var (
	exportOnce sync.Once
	exportMap  map[string]string
	exportErr  error
)

// stdlibExports resolves export-data files for the stdlib packages
// fixtures may import, shared across all fixture loads in the process.
func stdlibExports() (map[string]string, error) {
	exportOnce.Do(func() {
		// One `go list` for the closed import set fixtures use keeps the
		// fixture turnaround fast; extend the list when a fixture needs
		// a new stdlib package.
		pkgs := []string{
			"bytes", "context", "encoding/json", "errors", "fmt", "io",
			"net/http", "strconv", "strings", "sync", "sync/atomic", "time",
		}
		args := append([]string{"list", "-deps", "-export", "-json"}, pkgs...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			exportErr = fmt.Errorf("go list for fixture imports: %v\n%s", err, stderr.Bytes())
			return
		}
		exportMap = map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				exportErr = err
				return
			}
			if p.Export != "" {
				exportMap[p.ImportPath] = p.Export
			}
		}
	})
	return exportMap, exportErr
}

func loadFixture(dir string) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	exports, err := stdlibExports()
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("fixture imports %q, which is not in linttest's stdlib export set; add it", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %w", dir, err)
	}
	return &lint.Package{Path: tpkg.Path(), Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
