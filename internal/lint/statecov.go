package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The statecov analyzer pins the snapshot/restore completeness
// invariant: a struct annotated
//
//	//bzlint:state <capture> <restore>
//
// is serialized state (gob, DESIGN.md §11), and every one of its fields
// must be referenced both in the named capture function and in the named
// restore function — matched by base name among the package's function
// and method declarations — or carry a per-field
// //bzlint:allow statecov <reason> waiver. A field threaded through a
// full positional composite literal counts as referenced; a keyed
// composite literal counts only the keys it names. A state struct whose
// package declares GobEncode and GobDecode methods on it encodes itself,
// so gob never sees its fields: every field must also be referenced in
// both methods, under the same waiver, and may be unexported, as its own
// codec carries it. The analyzer also flags fields
// whose types gob cannot round-trip: func and chan types anywhere in the
// field's type graph, and reachable struct types with unexported fields
// (gob silently drops them) unless the type serializes itself via
// GobEncode or MarshalBinary.
func runStatecov(pkgs []*Package, passes map[*Package]*pass) {
	for _, pkg := range pkgs {
		p := passes[pkg]

		// Index this package's function declarations by base name: the
		// directive names capture/restore functions in the struct's own
		// package (methods included — "RestoreState" matches every
		// receiver's RestoreState, which is exactly right for the
		// per-module ExportState/RestoreState pairs).
		funcs := map[string][]*ast.FuncDecl{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					funcs[fd.Name.Name] = append(funcs[fd.Name.Name], fd)
				}
			}
		}

		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(gd.Specs) == 1 {
						doc = gd.Doc
					}
					dirs := declDirectives(doc, "state")
					if len(dirs) == 0 {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						p.report(f, ts.Pos(), "statecov",
							fmt.Sprintf("//bzlint:state directive on %s, which is not a struct type", ts.Name.Name),
							"annotate the state struct declaration itself")
						continue
					}
					checkStateStruct(p, f, ts, st, dirs[0][0], dirs[0][1], funcs)
				}
			}
		}
	}
}

// checkStateStruct verifies one annotated state struct against its
// capture and restore functions.
func checkStateStruct(p *pass, f *ast.File, ts *ast.TypeSpec, st *ast.StructType,
	captureName, restoreName string, funcs map[string][]*ast.FuncDecl) {
	const an = "statecov"
	sname := ts.Name.Name

	stype, ok := p.pkg.Info.TypeOf(ts.Type).(*types.Struct)
	if !ok {
		return
	}

	// Resolve each AST field entry to its *types.Var. The type-checked
	// struct flattens multi-name fields, so walk both in lockstep.
	type fieldInfo struct {
		obj *types.Var
		pos token.Pos
	}
	var fields []fieldInfo
	idx := 0
	for _, af := range st.Fields.List {
		n := len(af.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		for i := 0; i < n; i++ {
			if idx >= stype.NumFields() {
				break
			}
			pos := af.Pos()
			if i < len(af.Names) {
				pos = af.Names[i].Pos()
			}
			fields = append(fields, fieldInfo{obj: stype.Field(idx), pos: pos})
			idx++
		}
	}

	missingFn := false
	for _, want := range [2]string{captureName, restoreName} {
		if len(funcs[want]) == 0 {
			p.report(f, ts.Pos(), an,
				fmt.Sprintf("state struct %s names %s in //bzlint:state, but package %s declares no such function",
					sname, want, p.pkg.Name),
				"name the capture and restore functions that thread every field")
			missingFn = true
		}
	}

	// Collect the field objects referenced inside each function set that
	// must thread every field: capture and restore, and the struct's own
	// codec when it has one.
	refs := func(decls []*ast.FuncDecl) map[*types.Var]bool {
		out := map[*types.Var]bool{}
		for _, fd := range decls {
			collectFieldRefs(p.pkg.Info, fd.Body, stype, out)
		}
		return out
	}
	type threading struct {
		role, fn string
		refs     map[*types.Var]bool
	}
	var threads []threading
	if !missingFn {
		threads = append(threads,
			threading{"capture", captureName, refs(funcs[captureName])},
			threading{"restore", restoreName, refs(funcs[restoreName])})
	}
	tn := p.pkg.Info.Defs[ts.Name]
	enc := methodDecls(p.pkg.Info, funcs["GobEncode"], tn)
	dec := methodDecls(p.pkg.Info, funcs["GobDecode"], tn)
	selfEncoding := len(enc) > 0 && len(dec) > 0
	if selfEncoding {
		threads = append(threads,
			threading{"capture", "GobEncode", refs(enc)},
			threading{"restore", "GobDecode", refs(dec)})
	}

	for _, fi := range fields {
		name := fi.obj.Name()
		for _, th := range threads {
			if !th.refs[fi.obj] {
				p.report(f, fi.pos, an,
					fmt.Sprintf("field %s.%s is not referenced in %s function %s", sname, name, th.role, th.fn),
					"thread the field through capture and restore, or waive it with //bzlint:allow statecov <reason>")
			}
		}
		if !fi.obj.Exported() && !selfEncoding {
			p.report(f, fi.pos, an,
				fmt.Sprintf("unexported field %s.%s is invisible to gob", sname, name),
				"export the field or waive it with //bzlint:allow statecov <reason>")
		}
		if why := unserializable(fi.obj.Type(), map[types.Type]bool{}); why != "" {
			p.report(f, fi.pos, an,
				fmt.Sprintf("field %s.%s cannot round-trip through gob: %s", sname, name, why),
				"store serializable state and rebuild the live object on restore")
		}
	}
}

// methodDecls returns the declarations among decls that are methods of
// the named type tn, on a value or a pointer receiver.
func methodDecls(info *types.Info, decls []*ast.FuncDecl, tn types.Object) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, fd := range decls {
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			continue
		}
		t := info.TypeOf(fd.Recv.List[0].Type)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj() == tn {
			out = append(out, fd)
		}
	}
	return out
}

// collectFieldRefs marks which fields of stype the body references:
// selector expressions resolving to a field, keyed composite-literal
// keys, and — for a full positional composite literal of the struct —
// every field at once.
func collectFieldRefs(info *types.Info, body *ast.BlockStmt, stype *types.Struct, out map[*types.Var]bool) {
	if body == nil {
		return
	}
	fieldSet := map[*types.Var]bool{}
	for i := 0; i < stype.NumFields(); i++ {
		fieldSet[stype.Field(i)] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok {
				if v, ok := sel.Obj().(*types.Var); ok && fieldSet[v] {
					out[v] = true
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if t.Underlying() != stype {
				return true
			}
			keyed := false
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyed = true
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && fieldSet[v] {
						out[v] = true
					}
				}
			}
			if !keyed && len(n.Elts) == stype.NumFields() {
				for i := 0; i < stype.NumFields(); i++ {
					out[stype.Field(i)] = true
				}
			}
		}
		return true
	})
}

// unserializable reports why a type cannot round-trip through gob, or
// "" when it can. The walk follows pointers, slices, arrays, and maps,
// descends into named struct types, and stops at types that serialize
// themselves (GobEncode or MarshalBinary — time.Time, for one).
func unserializable(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if selfSerializing(u) {
			return ""
		}
		return unserializable(u.Underlying(), seen)
	case *types.Alias:
		return unserializable(types.Unalias(u), seen)
	case *types.Signature:
		return "func types are not serializable"
	case *types.Chan:
		return "chan types are not serializable"
	case *types.Pointer:
		return unserializable(u.Elem(), seen)
	case *types.Slice:
		return unserializable(u.Elem(), seen)
	case *types.Array:
		return unserializable(u.Elem(), seen)
	case *types.Map:
		if why := unserializable(u.Key(), seen); why != "" {
			return why
		}
		return unserializable(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			if !fld.Exported() {
				return fmt.Sprintf("reaches struct with unexported field %s, which gob drops silently", fld.Name())
			}
			if why := unserializable(fld.Type(), seen); why != "" {
				return why
			}
		}
	}
	return ""
}

// selfSerializing reports whether the named type (or its pointer)
// implements GobEncode or MarshalBinary and therefore controls its own
// wire format.
func selfSerializing(n *types.Named) bool {
	for _, name := range [2]string{"GobEncode", "MarshalBinary"} {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, n.Obj().Pkg(), name)
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}
