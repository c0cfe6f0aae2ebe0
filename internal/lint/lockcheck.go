package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The lockcheck analyzer enforces declared mutex discipline. A struct
// annotated (one directive per mutex, several allowed)
//
//	//bzlint:guards <mu> <field,field,...>
//
// promises that the named fields are only touched while <mu> is held.
// The analyzer verifies, flow-insensitively over the static call graph:
//
//   - every function that reads or writes a guarded field either locks
//     the mutex in its own body or carries //bzlint:holds <mu>
//     documenting that its callers lock;
//   - a function that takes a mutex only with RLock (no Lock, no
//     //bzlint:holds) does not assign to or increment a field it guards,
//     or an element of one: RLock admits other readers at the same time;
//   - every static caller of a //bzlint:holds function locks (or itself
//     holds) the required mutex;
//   - two mutexes are never acquired in both orders (lock-order
//     inversion — the two-mutex twin design stays deadlock-free only
//     while mu/runMu nest one way);
//   - a guarded struct is never passed or received by value (copying a
//     locked sync.Mutex is undefined);
//   - no Unlock without a matching Lock on some path through the body.
//
// Composite-literal construction is exempt: a struct literal's keys are
// not field accesses, so constructors need no locks before the value is
// shared.

// guardSpec is one //bzlint:guards declaration, resolved to type
// objects.
type guardSpec struct {
	tn     *types.TypeName
	mu     *types.Var
	fields []*types.Var
}

// lockFacts is what the analyzer knows about one function: the mutexes
// it locks anywhere in its body, the subset it takes with Lock rather
// than only RLock (wlocks), and the mutexes //bzlint:holds says its
// callers lock on its behalf.
type lockFacts struct {
	pkg    *Package
	file   *ast.File
	decl   *ast.FuncDecl
	locks  map[*types.Var]bool
	wlocks map[*types.Var]bool
	holds  map[*types.Var]bool
}

// lockEdge records where one mutex was first acquired while another was
// held, for the lock-order inversion report.
type lockEdge struct {
	p    *pass
	file *ast.File
	pos  token.Pos
	in   string // display name of the acquiring function
}

func runLockcheck(pkgs []*Package, passes map[*Package]*pass) {
	const an = "lockcheck"

	// Pass 1: collect guard declarations across the package set.
	var specs []guardSpec
	muName := map[*types.Var]string{}                 // mu var → "Type.mu" for diagnostics
	guardOf := map[*types.Var]*types.Var{}            // guarded field → its mutex
	guardedType := map[*types.TypeName][]*types.Var{} // type → its mutexes
	for _, pkg := range pkgs {
		p := passes[pkg]
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
					for _, args := range declDirectives(doc, "guards") {
						tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
						if tn == nil {
							continue
						}
						stype, ok := tn.Type().Underlying().(*types.Struct)
						if !ok {
							p.report(f, ts.Pos(), an,
								fmt.Sprintf("//bzlint:guards directive on %s, which is not a struct type", ts.Name.Name),
								"annotate the mutex-holding struct declaration")
							continue
						}
						byName := map[string]*types.Var{}
						for i := 0; i < stype.NumFields(); i++ {
							byName[stype.Field(i).Name()] = stype.Field(i)
						}
						mu := byName[args[0]]
						if mu == nil {
							p.report(f, ts.Pos(), an,
								fmt.Sprintf("//bzlint:guards names mutex %s, which is not a field of %s", args[0], ts.Name.Name),
								"write //bzlint:guards <mutexField> <field,field,...>")
							continue
						}
						gs := guardSpec{tn: tn, mu: mu}
						for _, fn := range splitComma(args[1]) {
							fv := byName[fn]
							if fv == nil {
								p.report(f, ts.Pos(), an,
									fmt.Sprintf("//bzlint:guards names %s, which is not a field of %s", fn, ts.Name.Name),
									"write //bzlint:guards <mutexField> <field,field,...>")
								continue
							}
							gs.fields = append(gs.fields, fv)
							guardOf[fv] = mu
						}
						specs = append(specs, gs)
						muName[mu] = ts.Name.Name + "." + mu.Name()
						guardedType[tn] = append(guardedType[tn], mu)
					}
				}
			}
		}
	}
	if len(specs) == 0 {
		return
	}

	// Pass 2: per-function lock/holds facts, by-value copy checks, and
	// the in-order acquisition walk feeding the lock-order and
	// unlock-without-lock rules.
	facts := map[string]*lockFacts{} // by types.Func.FullName
	lockOrder := map[[2]*types.Var]lockEdge{}

	for _, pkg := range pkgs {
		p := passes[pkg]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := &lockFacts{pkg: pkg, file: f, decl: fd, locks: map[*types.Var]bool{},
					wlocks: map[*types.Var]bool{}, holds: map[*types.Var]bool{}}
				facts[obj.FullName()] = ff

				// Guarded struct received or passed by value: the copy
				// duplicates the mutex, splitting the lock from the data.
				checkByValue := func(fl *ast.FieldList) {
					if fl == nil {
						return
					}
					for _, prm := range fl.List {
						t := pkg.Info.TypeOf(prm.Type)
						named, ok := t.(*types.Named)
						if !ok {
							continue
						}
						if mus := guardedType[named.Obj()]; len(mus) > 0 {
							p.report(f, prm.Pos(), an,
								fmt.Sprintf("%s passed by value copies its mutex %s", named.Obj().Name(), muName[mus[0]]),
								"use a pointer: the mutex and the fields it guards must not be duplicated")
						}
					}
				}
				checkByValue(fd.Recv)
				checkByValue(fd.Type.Params)

				for _, args := range declDirectives(fd.Doc, "holds") {
					mu := resolveHoldsMutex(pkg, fd, args[0], specs, guardedType)
					if mu == nil {
						p.report(f, fd.Pos(), an,
							fmt.Sprintf("//bzlint:holds names %s, which matches no declared //bzlint:guards mutex", args[0]),
							"declare the mutex with //bzlint:guards on its struct first")
						continue
					}
					ff.holds[mu] = true
				}

				walkLocks(p, ff, muName, func(held, locked *types.Var, pos token.Pos) {
					k := [2]*types.Var{held, locked}
					if _, ok := lockOrder[k]; !ok {
						lockOrder[k] = lockEdge{p: p, file: f, pos: pos, in: displayName(pkg, fd)}
					}
				})
			}
		}
	}

	// Rules: guarded-field access requires the lock (or holds), and a
	// write requires more than a read lock.
	for _, pkg := range pkgs {
		p := passes[pkg]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				ff := facts[obj.FullName()]
				checkWrite := func(lhs ast.Expr) {
					lhs = ast.Unparen(lhs)
					for ix, ok := lhs.(*ast.IndexExpr); ok; ix, ok = lhs.(*ast.IndexExpr) {
						lhs = ast.Unparen(ix.X) // an element write writes the field's map or slice
					}
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						return
					}
					s, ok := pkg.Info.Selections[sel]
					if !ok {
						return
					}
					v, _ := s.Obj().(*types.Var)
					mu, guarded := guardOf[v]
					if !guarded || !ff.locks[mu] || ff.wlocks[mu] || ff.holds[mu] {
						return
					}
					p.report(f, sel.Pos(), an,
						fmt.Sprintf("%s writes %s-guarded field %s holding only a read lock", displayName(pkg, fd), muName[mu], v.Name()),
						fmt.Sprintf("take %s with Lock for the write: RLock admits other readers at the same time", muName[mu]))
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							checkWrite(lhs)
						}
					case *ast.IncDecStmt:
						checkWrite(n.X)
					}
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s, ok := pkg.Info.Selections[sel]
					if !ok {
						return true
					}
					v, ok := s.Obj().(*types.Var)
					if !ok {
						return true
					}
					mu, guarded := guardOf[v]
					if !guarded || ff.locks[mu] || ff.holds[mu] {
						return true
					}
					p.report(f, sel.Pos(), an,
						fmt.Sprintf("%s accesses %s-guarded field %s without locking", displayName(pkg, fd), muName[mu], v.Name()),
						fmt.Sprintf("lock %s in this function, or annotate it //bzlint:holds %s and make every caller lock", muName[mu], mu.Name()))
					return true
				})
			}
		}
	}

	// Rule: every static caller of a //bzlint:holds function locks or
	// holds the required mutex.
	for _, pkg := range pkgs {
		p := passes[pkg]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				caller := facts[obj.FullName()]
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeFunc(pkg.Info, call)
					if fn == nil {
						return true
					}
					callee := facts[fn.FullName()]
					if callee == nil || len(callee.holds) == 0 {
						return true
					}
					for _, gs := range specs {
						mu := gs.mu
						if !callee.holds[mu] || caller.locks[mu] || caller.holds[mu] {
							continue
						}
						p.report(f, call.Pos(), an,
							fmt.Sprintf("%s calls %s, which requires %s held, without locking it",
								displayName(pkg, fd), fn.Name(), muName[mu]),
							fmt.Sprintf("lock %s before the call, or annotate the caller //bzlint:holds %s", muName[mu], mu.Name()))
					}
					return true
				})
			}
		}
	}

	// Rule: no lock-order inversion — if A→B and B→A both exist, the
	// pair can deadlock. Reported at each inverted edge.
	for k, e := range lockOrder {
		rev := [2]*types.Var{k[1], k[0]}
		if _, inverted := lockOrder[rev]; !inverted {
			continue
		}
		e.p.report(e.file, e.pos, an,
			fmt.Sprintf("lock-order inversion: %s acquires %s while holding %s, but the opposite order also exists",
				e.in, muName[k[1]], muName[k[0]]),
			"pick one nesting order for the two mutexes and make every path follow it")
	}
}

// splitComma splits "a,b,c" into its non-empty segments.
func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// resolveHoldsMutex maps a //bzlint:holds operand to a declared guard
// mutex: for methods, a mutex field of the receiver's type; for plain
// functions, a uniquely-named mutex among the loaded guard declarations.
func resolveHoldsMutex(pkg *Package, fd *ast.FuncDecl, name string,
	specs []guardSpec, guardedType map[*types.TypeName][]*types.Var) *types.Var {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := pkg.Info.TypeOf(fd.Recv.List[0].Type)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			for _, mu := range guardedType[named.Obj()] {
				if mu.Name() == name {
					return mu
				}
			}
		}
		return nil
	}
	var found *types.Var
	for _, gs := range specs {
		if gs.mu.Name() == name {
			if found != nil {
				return nil // ambiguous across types; annotate a method instead
			}
			found = gs.mu
		}
	}
	return found
}

// walkLocks performs the in-source-order acquisition walk over one
// function body: it records which declared mutexes the body locks
// (ff.locks), reports plain Unlock calls with no preceding Lock, and
// feeds each (held, newly-locked) pair to onEdge for the lock-order
// check. Deferred Unlocks keep the mutex held to the end of the body,
// matching the dominant defer-unlock idiom; the walk is a lint
// heuristic, not a path-sensitive proof.
func walkLocks(p *pass, ff *lockFacts, muName map[*types.Var]string,
	onEdge func(held, locked *types.Var, pos token.Pos)) {
	const an = "lockcheck"
	info := ff.pkg.Info
	var held []*types.Var
	for _, gs := range ffHoldsOrdered(ff) {
		held = append(held, gs)
	}
	deferred := map[ast.Node]bool{}

	// lockTarget resolves `x.mu.Lock()`-shaped calls to (muVar, method).
	lockTarget := func(call *ast.CallExpr) (*types.Var, string) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil, ""
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return nil, ""
		}
		s, ok := info.Selections[inner]
		if !ok {
			return nil, ""
		}
		v, ok := s.Obj().(*types.Var)
		if !ok || muName[v] == "" {
			return nil, ""
		}
		return v, sel.Sel.Name
	}

	ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			mu, method := lockTarget(n)
			if mu == nil {
				return true
			}
			switch method {
			case "Lock", "RLock":
				ff.locks[mu] = true
				if method == "Lock" {
					ff.wlocks[mu] = true
				}
				for _, h := range held {
					if h != mu {
						onEdge(h, mu, n.Pos())
					}
				}
				held = append(held, mu)
			case "Unlock", "RUnlock":
				if deferred[n] {
					return true // releases at return; held for the body
				}
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == mu {
						held = append(held[:i], held[i+1:]...)
						return true
					}
				}
				// A Lock earlier in the body means this is a second unlock
				// on a different branch (the early-unlock-and-return
				// idiom), not an unlock of a never-locked mutex; the walk
				// is source-ordered, not path-sensitive, so only the
				// latter is reportable.
				if ff.locks[mu] {
					return true
				}
				p.report(ff.file, n.Pos(), an,
					fmt.Sprintf("%s unlocks %s without a preceding Lock on this path",
						displayName(ff.pkg, ff.decl), muName[mu]),
					fmt.Sprintf("lock %s first, or annotate the function //bzlint:holds %s", muName[mu], mu.Name()))
			}
		}
		return true
	})
}

// ffHoldsOrdered returns the holds set in a deterministic order (holds
// maps are tiny; order only affects edge attribution, not findings).
func ffHoldsOrdered(ff *lockFacts) []*types.Var {
	var out []*types.Var
	for mu := range ff.holds {
		out = append(out, mu)
	}
	if len(out) > 1 {
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].Name() < out[j-1].Name(); j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	return out
}
