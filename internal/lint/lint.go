// Package lint is wmlint's analysis framework: a deliberately small,
// stdlib-only re-implementation of the golang.org/x/tools/go/analysis
// surface this repo needs. The module is dependency-free by policy, so
// rather than vendoring x/tools the framework provides the same shape —
// an Analyzer with a Run func over a type-checked Pass — plus the two
// repo-specific conventions every analyzer shares:
//
//   - annotations: "//wm:hotpath", "//wm:sharded", "//wm:nocopy" and
//     "//wm:locked" pragma comments attach invariants to functions,
//     files and types (see DESIGN.md §15);
//   - suppression: a "//lint:ignore wmlint/<name> reason" comment on the
//     flagged line or the line above silences one analyzer at that site.
//
// Packages reach a Pass two ways: the standalone loader in load.go
// ("wmlint ./...") and the go-vet unitchecker protocol in unitchecker.go
// ("go vet -vettool=$(which wmlint) ./..."). Module analyzers, which need
// every package at once, run only in the standalone mode.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// comments ("//lint:ignore wmlint/<Name> reason").
	Name string
	// Doc is a one-paragraph description, shown by "wmlint -help".
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
	// RunModule, set instead of Run, inspects every package the
	// standalone loader checked at once. go vet shows a tool one package
	// at a time, so module analyzers do not run under it.
	RunModule func(pass *ModulePass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding, positioned in the package's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, newDiagnostic(p.Analyzer, pos, format, args))
}

// A ModulePass is one module analyzer's view of a whole load.
type ModulePass struct {
	Analyzer *Analyzer
	// Pkgs are the packages the patterns matched; findings belong here.
	Pkgs []*Package
	// Callers are the packages of the modules nested under theirs. Their
	// uses count, but they are not reported on.
	Callers []*Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, newDiagnostic(p.Analyzer, pos, format, args))
}

func newDiagnostic(a *Analyzer, pos token.Pos, format string, args []any) Diagnostic {
	return Diagnostic{Pos: pos, Analyzer: a.Name, Message: fmt.Sprintf(format, args...)}
}

// Check runs the analyzers over packages from one Load: the
// per-package ones on each package, the module ones once over all of
// them, with the packages of nested modules loaded as extra callers.
// Suppressed findings are dropped, the rest come back sorted by
// position in the load's FileSet.
func Check(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	var files []*ast.File
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
		files = append(files, pkg.Files...)
	}
	var module []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			module = append(module, a)
		}
	}
	if len(module) > 0 && len(pkgs) > 0 {
		callers, err := loadNested(pkgs)
		if err != nil {
			return nil, err
		}
		fset := pkgs[0].Fset
		sup := collectSuppressions(fset, files)
		for _, a := range module {
			pass := &ModulePass{Analyzer: a, Pkgs: pkgs, Callers: callers}
			if err := a.RunModule(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
			}
			out = append(out, sup.filter(fset, pass.diags)...)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

// RunAnalyzers applies each per-package analyzer to the package and
// returns the surviving diagnostics — suppressed findings are dropped,
// the rest come back sorted by file position. Module analyzers are
// skipped; Check runs them. The returned diagnostics use pkg.Fset.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
		out = append(out, sup.filter(pkg.Fset, pass.diags)...)
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// suppressions maps "filename:line" to the analyzer names ignored there.
// A "//lint:ignore wmlint/<name> reason" comment suppresses findings on
// its own line and on the following line, mirroring staticcheck's
// placement rules for line comments.
type suppressions map[string]map[string]bool

func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // a reason is mandatory; ignore malformed pragmas
				}
				name, ok := strings.CutPrefix(fields[0], "wmlint/")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					if sup[key] == nil {
						sup[key] = map[string]bool{}
					}
					sup[key][name] = true
				}
			}
		}
	}
	return sup
}

// filter returns the diagnostics no suppression covers.
func (s suppressions) filter(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		if !s[fmt.Sprintf("%s:%d", p.Filename, p.Line)][d.Analyzer] {
			out = append(out, d)
		}
	}
	return out
}

// --- annotation helpers -------------------------------------------------

// commentHasPragma reports whether any line of the comment group is
// exactly the given "//wm:..." pragma (trailing words allowed).
func commentHasPragma(cg *ast.CommentGroup, pragma string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == pragma || strings.HasPrefix(text, pragma+" ") {
			return true
		}
	}
	return false
}

// fileHasPragma reports whether the file carries a file-scoped pragma:
// any comment group that ends before the package clause (the header
// block) or the package doc comment itself.
func fileHasPragma(f *ast.File, pragma string) bool {
	if commentHasPragma(f.Doc, pragma) {
		return true
	}
	for _, cg := range f.Comments {
		if cg.End() < f.Package && commentHasPragma(cg, pragma) {
			return true
		}
	}
	return false
}

// funcHasPragma reports whether the function's doc comment carries the
// pragma.
func funcHasPragma(fn *ast.FuncDecl, pragma string) bool {
	return commentHasPragma(fn.Doc, pragma)
}

// typeSpecPragma reports whether the type declaration carries the pragma,
// on either the TypeSpec's own doc or the enclosing GenDecl's.
func typeSpecPragma(gd *ast.GenDecl, ts *ast.TypeSpec, pragma string) bool {
	return commentHasPragma(ts.Doc, pragma) || commentHasPragma(gd.Doc, pragma)
}

// --- small type-query helpers shared by analyzers -----------------------

// namedType returns the *types.Named beneath pointers and aliases, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamed reports whether t (after stripping pointers) is the named type
// path.name, e.g. isNamed(t, "sync", "Pool").
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleeObj resolves a call expression to the declared function or method
// object it invokes, or nil for indirect calls and conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether the call invokes pkgPath.name (a package-level
// function, e.g. fmt.Sprintf or context.Background).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	obj := calleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// isMethodCall reports whether the call is a method call recvPkg.recvType.name,
// resolved through the selection's receiver type (pointers stripped).
func isMethodCall(info *types.Info, call *ast.CallExpr, recvPkg, recvType, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != name {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	return isNamed(selection.Recv(), recvPkg, recvType)
}

// hasContextParam reports whether the signature takes a context.Context.
func hasContextParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isNamed(sig.Params().At(i).Type(), "context", "Context") {
			return true
		}
	}
	return false
}

// hasRequestParam reports whether the signature takes an *http.Request.
func hasRequestParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isNamed(sig.Params().At(i).Type(), "net/http", "Request") {
			return true
		}
	}
	return false
}

// funcSig returns the declared signature of fn, or nil when unresolved.
func funcSig(info *types.Info, fn *ast.FuncDecl) *types.Signature {
	obj, ok := info.Defs[fn.Name]
	if !ok || obj == nil {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig
}
