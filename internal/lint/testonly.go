package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The testonly analyzer flags exported surface that only tests reach: an
// exported function, method, type, constant or variable of a non-main
// package that no non-test file of the run references. The loader never
// parses _test.go files, so every reference it sees is a shipped one.
// References are the checker's recorded uses (a selector's selected
// object is recorded there too), resolved to their generic origin so a
// method used only through an instantiation counts. A use inside the
// declaration itself does not count: a recursive call, a type naming
// itself in its fields, or a method naming its receiver's type.
//
// A method is exempt when its receiver type, T or *T, implements an
// interface with a method of that name, since calls through the
// interface never name the concrete method. The interfaces come from
// every loaded package and every package they import transitively, the
// standard library included (fmt.Stringer, gob.GobEncoder, sort.Interface),
// plus error. Struct fields and interface methods are out of scope.
//
// The reference set is complete only over the whole module, so the
// analyzer runs only when Config.TestOnly is set: a run over one package
// would flag everything that only other packages use.
func runTestonly(pkgs []*Package, passes map[*Package]*pass) {
	const an = "testonly"

	refs := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				collectRefs(pkg.Info, d, refs)
			}
		}
	}
	ifaces := interfacesByMethod(pkgs)

	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			continue
		}
		p := passes[pkg]
		check := func(f *ast.File, id *ast.Ident, what string) {
			obj := pkg.Info.Defs[id]
			if obj == nil || !id.IsExported() || refs[obj] {
				return
			}
			p.report(f, id.Pos(), an,
				fmt.Sprintf("exported %s %s has no non-test reference", what, objName(obj)),
				"delete it with the tests that exercise it, or, when a test in another package needs it, write //bzlint:allow testonly <that test>")
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						check(f, d.Name, "function")
					} else if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok && !satisfiesInterface(fn, ifaces) {
						check(f, d.Name, "method")
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(f, s.Name, "type")
						case *ast.ValueSpec:
							what := "variable"
							if d.Tok == token.CONST {
								what = "constant"
							}
							for _, n := range s.Names {
								check(f, n, what)
							}
						}
					}
				}
			}
		}
	}
}

// collectRefs records every object that declaration d uses. A use of
// the declared object itself inside its declaration does not count, and
// neither does a method's use of its receiver's type.
func collectRefs(info *types.Info, d ast.Decl, refs map[types.Object]bool) {
	record := func(n ast.Node, self ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			for _, s := range self {
				if obj == s {
					return true
				}
			}
			if obj != nil {
				refs[obj] = true
			}
			return true
		})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		fn, _ := info.Defs[d.Name].(*types.Func)
		record(d, fn, recvTypeName(fn))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				record(s, info.Defs[s.Name])
			case *ast.ValueSpec:
				var self []types.Object
				for _, n := range s.Names {
					self = append(self, info.Defs[n])
				}
				record(s, self...)
			}
		}
	}
}

// recvTypeName returns the declared type a method's receiver names, or
// nil for a plain function.
func recvTypeName(fn *types.Func) types.Object {
	if fn == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// interfacesByMethod indexes, by method name, every interface type the
// loaded packages declare or spell out, every package-level interface of
// the packages they import transitively, and error. Generic interfaces
// are left out: they cannot be tested for implementation uninstantiated.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	idx := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			idx[name] = append(idx[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())

	visited := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		// Interface literals and function-local interface types.
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return idx
}

// satisfiesInterface reports whether method fn's receiver type, T or *T,
// implements one of the indexed interfaces that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// objName renders a declared object as pkg.Name, or as (*pkg.T).Name or
// pkg.T.Name for a method.
func objName(obj types.Object) string {
	qual := func(p *types.Package) string { return p.Name() }
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := types.TypeString(recv.Type(), qual)
			if _, ptr := recv.Type().(*types.Pointer); ptr {
				t = "(" + t + ")"
			}
			return t + "." + fn.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
