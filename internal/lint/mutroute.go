package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The mutroute analyzer pins the single-route mutation invariant: every
// mutation of a running fleet flows through fleet.Apply(Event) (epoch
// boundary drain + journal, DESIGN.md §11), never through direct setter
// calls that would bypass the journal and break snapshot replay.
//
// Setters declare themselves with
//
//	//bzlint:mutsetter <route>
//
// and a call to a declared setter is legal only from:
//
//   - the setter's own package (construction, restore, and the batch
//     plumbing live next to the state they mutate);
//   - another setter on the same route;
//   - a function annotated //bzlint:mutroute <route> <reason> — the
//     audited members of the route (fleet.Apply's internals, validated
//     constructors);
//   - a _test.go file (never loaded by the analyzer);
//   - a //bzlint:allow mutroute <reason> waived call site.
//
// Everything else is a finding whose hint points at the route name.
//
// Membership is tracked too: a //bzlint:mutroute member whose body calls
// no setter of its route admits nothing, and the stale-waiver report
// (runStaleAllow) flags it so the annotation cannot outlive the call it
// excused.
func runMutroute(pkgs []*Package, passes map[*Package]*pass) {
	const an = "mutroute"

	// Pass 1: collect setter declarations and route members.
	setterRoute := map[string]string{} // types.Func.FullName → route
	setterPkg := map[string]*Package{}
	memberDirs := map[string][]*routeDir{} // FullName → its //bzlint:mutroute annotations
	for _, pkg := range pkgs {
		dirs := passes[pkg].dirs
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				for _, args := range declDirectives(fd.Doc, "mutsetter") {
					setterRoute[obj.FullName()] = args[0]
					setterPkg[obj.FullName()] = pkg
				}
				for _, args := range declDirectives(fd.Doc, "mutroute") {
					rd := &routeDir{pos: fd.Pos(), fn: fd.Name.Name, route: args[0]}
					memberDirs[obj.FullName()] = append(memberDirs[obj.FullName()], rd)
					dirs[f].routes = append(dirs[f].routes, rd)
				}
			}
		}
	}
	if len(setterRoute) == 0 {
		return
	}

	// Pass 2: audit every static call site of a declared setter.
	for _, pkg := range pkgs {
		p := passes[pkg]
		for _, f := range pkg.Files {
			// Enclosing-function lookup by position range.
			var fns []*ast.FuncDecl
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					fns = append(fns, fd)
				}
			}
			enclosing := func(pos token.Pos) *ast.FuncDecl {
				for _, fd := range fns {
					if pos >= fd.Pos() && pos < fd.End() {
						return fd
					}
				}
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil {
					return true
				}
				route, isSetter := setterRoute[fn.FullName()]
				if !isSetter {
					return true
				}
				member := false // the caller is a setter or a mutroute member of this route
				if fd := enclosing(call.Pos()); fd != nil {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						caller := obj.FullName()
						r, callerIsSetter := setterRoute[caller]
						member = callerIsSetter && r == route
						for _, rd := range memberDirs[caller] {
							if rd.route == route {
								rd.used = true
								member = true
							}
						}
					}
				}
				if member || pkg == setterPkg[fn.FullName()] {
					return true // a route member, or in-package construction and restore plumbing
				}
				p.report(f, call.Pos(), an,
					fmt.Sprintf("call to %s bypasses mutation route %s", fn.FullName(), route),
					fmt.Sprintf("mutate through %s, or annotate an audited constructor //bzlint:mutroute %s <reason>", route, route))
				return true
			})
		}
	}
}
