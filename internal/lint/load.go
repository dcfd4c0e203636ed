package lint

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	moduleDir    string // root of the package's module; "" outside Load
	testImported bool   // some _test.go file of the load imports it
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Module     *struct{ Dir string }

	TestImports, XTestImports []string
}

// Load resolves the patterns with the go tool and type-checks every
// matched (non-dependency) package from source. Dependencies — stdlib and
// intra-module alike — are imported from compiler export data, which
// `go list -export` guarantees exists in the build cache; that keeps the
// loader free of any dependency on x/tools while staying exact about
// types. Test files are not loaded in this mode (the vettool path covers
// them); see unitchecker.go. The go tool runs in dir ("" for the
// current directory).
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(token.NewFileSet(), dir, patterns)
}

func load(fset *token.FileSet, dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}

	exports := map[string]string{}
	testImports := map[string]bool{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && p.Name != "" {
			cp := p
			targets = append(targets, &cp)
			for _, path := range append(p.TestImports, p.XTestImports...) {
				testImports[path] = true
			}
		}
	}

	imp := newExportImporter(fset, exports, nil)
	var pkgs []*Package
	for _, t := range targets {
		var files []string
		for _, f := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := typeCheck(fset, t.ImportPath, files, imp, "")
		if err != nil {
			return nil, err
		}
		if t.Module != nil {
			pkg.moduleDir = t.Module.Dir
		}
		pkg.testImported = testImports[t.ImportPath]
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// loadNested loads every package of every module nested under the
// modules of pkgs, into their FileSet. A nested module is a directory
// below a module root holding its own go.mod; dot-directories and
// testdata are not searched.
func loadNested(pkgs []*Package) ([]*Package, error) {
	roots := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.moduleDir != "" {
			roots[pkg.moduleDir] = true
		}
	}
	var nested []*Package
	for root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() || path == root {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err != nil {
				return nil
			}
			more, err := load(pkgs[0].Fset, path, []string{"./..."})
			nested = append(nested, more...)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return nested, nil
}

// newExportImporter builds a types.Importer that reads gc export data
// from the given importPath->file map, canonicalizing through importMap
// first (the vet config's vendor/test-variant mapping; nil for Load).
// The underlying gc importer caches, so one importer instance must be
// shared across all packages checked against one FileSet.
func newExportImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compilerImporter := importer.ForCompiler(fset, "gc", lookup)
	return importerFunc(func(path string) (*types.Package, error) {
		if importMap != nil {
			if mapped, ok := importMap[path]; ok {
				path = mapped
			}
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheck parses and checks one package. goVersion, when non-empty, is
// the language version from the vet config ("go1.22"); empty means the
// toolchain default.
func typeCheck(fset *token.FileSet, path string, filenames []string, imp types.Importer, goVersion string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", goarch()),
	}
	if goVersion != "" {
		conf.GoVersion = goVersion
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

func goarch() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	// runtime.GOARCH matches the toolchain this binary was built with,
	// which is the same toolchain producing the export data.
	return runtime.GOARCH
}

// FormatDiagnostic renders one finding in the conventional
// "file:line:col: message (wmlint/name)" shape.
func FormatDiagnostic(fset *token.FileSet, d Diagnostic) string {
	p := fset.Position(d.Pos)
	file := p.Filename
	if rel, err := filepath.Rel(mustGetwd(), file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return fmt.Sprintf("%s:%d:%d: %s (wmlint/%s)", file, p.Line, p.Column, d.Message, d.Analyzer)
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}
