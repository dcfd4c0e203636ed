package lint

import (
	"go/ast"
	"go/types"
)

// DeadExport keeps the public API to what the program uses: an exported
// function or method that no non-test file calls, takes or names is test
// scaffolding on the API, or dead code. Uses are read from every package
// of the load and of the modules nested under it, so a name the
// benchmark module calls is alive. An object is keyed by package path,
// receiver type name and name, because a package's own objects and the
// ones its importers see through export data are different objects.
//
// Exempt are methods that satisfy an interface — one the load declares
// or imports, the built-in error, or the errors package's anonymous
// Unwrap protocol — and packages that only _test.go files import, whose
// API is for tests by construction. Anything else that must stay (an
// ablation entry point, a test seam) says why with
// //lint:ignore wmlint/deadexport <reason>.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "every exported function and method is used by some non-test file " +
		"of the module or a module nested in it (standalone mode only)",
	RunModule: runDeadExport,
}

type funcKey struct{ pkg, recv, name string }

func keyOf(fn *types.Func) funcKey {
	fn = fn.Origin()
	k := funcKey{name: fn.Name()}
	if fn.Pkg() != nil {
		k.pkg = fn.Pkg().Path()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedType(recv.Type()); n != nil {
			k.recv = n.Origin().Obj().Name()
		}
	}
	return k
}

func runDeadExport(pass *ModulePass) error {
	all := append(append([]*Package(nil), pass.Pkgs...), pass.Callers...)
	used := map[funcKey]bool{}
	imported := map[string]bool{} // paths some non-test file imports
	for _, pkg := range all {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[keyOf(fn)] = true
			}
		}
	}
	ifaces := interfacesByMethod(all)

	for _, pkg := range pass.Pkgs {
		if pkg.testImported && !imported[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				k := keyOf(fn)
				if used[k] || satisfiesInterface(fn, ifaces) {
					continue
				}
				name := k.name
				if k.recv != "" {
					name = k.recv + "." + name
				}
				pass.Reportf(fd.Name.Pos(), "exported %s is used by no non-test file", name)
			}
		}
	}
	return nil
}

// interfacesByMethod indexes by method name every interface a method of
// the load could be called through: the interface types the loaded
// packages spell out (named, anonymous or function-local), the named
// interfaces of every package they import, error, and the errors
// package's anonymous Unwrap protocol.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	added := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() || added[iface] {
			return
		}
		added[iface] = true
		if n, ok := types.Unalias(t).(*types.Named); ok && n.TypeParams().Len() > 0 {
			return // a generic interface says nothing until instantiated
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	unwrap := types.NewFunc(0, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "", errType)), false))
	add(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	return out
}

// satisfiesInterface reports whether fn is a method through which one
// of the interfaces can call its receiver type.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	n := namedType(recv.Type())
	if n == nil {
		return false
	}
	if n.TypeParams().Len() > 0 {
		// A generic type cannot be checked uninstantiated; the name alone
		// has to do.
		return len(ifaces[fn.Name()]) > 0
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
			return true
		}
	}
	return false
}
