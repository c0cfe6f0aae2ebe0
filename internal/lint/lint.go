package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Config scopes the per-package analyzers. Map keys come in two forms:
// a bare package base name ("wsn"), or — for trees where a base name is
// or may become ambiguous — an import-path suffix containing a slash
// ("internal/trace"), which matches exactly the packages whose import
// path equals the key or ends in "/"+key. A path-style key never matches
// by base name, so a second package that happens to share a base name
// cannot silently inherit the wrong analyzer set.
type Config struct {
	// Deterministic lists the packages whose code must replay
	// bit-identically from a seed: the determinism analyzer forbids wall
	// clocks, global math/rand, goroutine launches, and unordered map
	// iteration there.
	Deterministic map[string]bool
	// FloatEq lists the packages where ==/!= between floating-point
	// operands is flagged. Exact float comparison is occasionally
	// intentional (fixed-point caches, sentinel values); those sites
	// carry //bzlint:allow floateq waivers.
	FloatEq map[string]bool
	// StaleAllow reports //bzlint:allow and //bzlint:ordered waivers that
	// no longer suppress any diagnostic, and //bzlint:mutroute members
	// that call no setter of their route. A stale waiver is a hole in the
	// policy: the code it excused is gone, but the excuse would still
	// silence a future finding on that line, or admit a future setter call
	// nobody audited.
	StaleAllow bool
}

// DefaultConfig is the repository policy: the deterministic set is every
// package on the seeded replay path (one stray time.Now() or map-order
// dependence there silently breaks the golden Fig10 SHA), the float
// comparison rule covers the same set plus psychro, whose exact-key
// memos are the approved — and annotated — exception, and stale-waiver
// reporting is on (CI deletes excuses that outlive their code).
func DefaultConfig() Config {
	det := map[string]bool{
		"sim": true, "core": true, "wsn": true, "adaptive": true,
		"fault": true, "thermal": true, "hydraulic": true,
		"radiant": true, "vent": true, "multihop": true, "trace": true,
		"fleet": true, "twin": true,
	}
	feq := map[string]bool{"psychro": true}
	for k := range det {
		feq[k] = true
	}
	return Config{Deterministic: det, FloatEq: feq, StaleAllow: true}
}

// scopeHas reports whether a Config scope set selects pkg: bare keys
// match the package base name, keys containing a slash match the import
// path itself or a "/"-delimited suffix of it.
func scopeHas(set map[string]bool, pkg *Package) bool {
	if set[pkg.Name] {
		return true
	}
	for k, on := range set {
		if on && strings.Contains(k, "/") &&
			(pkg.Path == k || strings.HasSuffix(pkg.Path, "/"+k)) {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, carrying the position, the analyzer that
// produced it, the violation, and a suggested rewrite.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Hint     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Directive comments recognized in linted source:
//
//	//bzlint:ordered <reason>              waives a map-range on the same or next line
//	//bzlint:allow <analyzer> <reason>     waives that analyzer on the same or next line
//	//bzlint:hotpath                       marks the function below as a hot-path root
//	//bzlint:state <capture> <restore>     marks the struct below as snapshot state (statecov)
//	//bzlint:guards <mu> <field,...>       declares mu-guarded fields on the struct below (lockcheck)
//	//bzlint:holds <mu>                    documents that the function below runs with mu held
//	//bzlint:mutsetter <route>             marks the function below as a guarded mutation setter
//	//bzlint:mutroute <route> <reason>     admits the function below to a mutation route
//
// A waiver without a reason is itself a diagnostic: the point of a
// waiver is the recorded justification. Likewise a malformed declaration
// directive (wrong operand count) is reported rather than ignored, so a
// typo cannot silently disable a check.
const (
	dirPrefix  = "//bzlint:"
	dirHotpath = "//bzlint:hotpath"
)

// allowDir is one //bzlint:allow waiver, with usage tracked for the
// stale-waiver report.
type allowDir struct {
	pos    token.Pos
	reason string
	used   bool
}

// orderedDir is one //bzlint:ordered waiver, with usage tracked.
type orderedDir struct {
	pos  token.Pos
	used bool
}

// routeDir is one //bzlint:mutroute membership, with usage tracked for
// the stale-waiver report: a member that calls no setter of its route
// admits nothing.
type routeDir struct {
	pos   token.Pos // the member's declaration
	fn    string
	route string
	used  bool
}

// fileDirectives indexes one file's bzlint waiver comments by line, plus
// the file's //bzlint:mutroute members (collected by runMutroute).
type fileDirectives struct {
	ordered map[int]*orderedDir
	allow   map[int]map[string]*allowDir // line → analyzer → waiver
	routes  []*routeDir
}

// pass bundles what every analyzer needs: the package under analysis,
// the waiver index, and the diagnostic sink.
type pass struct {
	pkg  *Package
	fset *token.FileSet
	dirs map[*ast.File]*fileDirectives
	out  *[]Diagnostic
}

// directiveArity maps each declaration-annotation verb to its exact
// operand count; -1 means "at least that many" (a trailing free-form
// reason). ordered/allow/hotpath are handled separately.
var directiveMinArgs = map[string]int{
	"state":     2, // capture restore
	"guards":    2, // mu field,field
	"holds":     1, // mu
	"mutsetter": 1, // route
	"mutroute":  2, // route reason...
}
var directiveExactArgs = map[string]bool{
	"state": true, "guards": true, "holds": true, "mutsetter": true,
}

// parseDirectives scans a file's comments, indexes waivers by line, and
// reports malformed directives (unknown verb, missing reason or operand)
// so a bad waiver cannot silently disable a check.
func parseDirectives(p *pass, f *ast.File) *fileDirectives {
	d := &fileDirectives{ordered: map[int]*orderedDir{}, allow: map[int]map[string]*allowDir{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, dirPrefix) {
				continue
			}
			line := p.fset.Position(c.Pos()).Line
			fields := strings.Fields(strings.TrimPrefix(text, dirPrefix))
			verb := ""
			if len(fields) > 0 {
				verb = fields[0]
			}
			args := fields[1:]
			switch verb {
			case "ordered":
				if len(args) == 0 {
					p.emit(c.Pos(), "bzlint", "//bzlint:ordered waiver without a reason", "state why the loop body is order-insensitive")
					continue
				}
				d.ordered[line] = &orderedDir{pos: c.Pos()}
			case "allow":
				if len(args) < 2 {
					p.emit(c.Pos(), "bzlint", "//bzlint:allow waiver needs an analyzer and a reason", "write //bzlint:allow <analyzer> <reason>")
					continue
				}
				if d.allow[line] == nil {
					d.allow[line] = map[string]*allowDir{}
				}
				d.allow[line][args[0]] = &allowDir{pos: c.Pos(), reason: strings.Join(args[1:], " ")}
			case "hotpath":
				// Consumed by the hotpath analyzer via FuncDecl docs; the
				// marker takes no operands.
				if len(args) != 0 {
					p.emit(c.Pos(), "bzlint", "//bzlint:hotpath takes no operands", "put the marker on its own doc-comment line")
				}
			case "state", "guards", "holds", "mutsetter", "mutroute":
				// Consumed by the statecov/lockcheck/mutroute analyzers via
				// declaration docs; validated here so a malformed annotation
				// is a finding, not a silently inert comment.
				min := directiveMinArgs[verb]
				if len(args) < min || (directiveExactArgs[verb] && len(args) != min) {
					p.emit(c.Pos(), "bzlint",
						fmt.Sprintf("malformed //bzlint:%s directive (want %d operand(s))", verb, min),
						directiveUsage(verb))
				}
			default:
				p.emit(c.Pos(), "bzlint", fmt.Sprintf("unknown bzlint directive %q", text), "known directives: ordered, allow, hotpath, state, guards, holds, mutsetter, mutroute")
			}
		}
	}
	return d
}

func directiveUsage(verb string) string {
	switch verb {
	case "state":
		return "write //bzlint:state <captureFunc> <restoreFunc>"
	case "guards":
		return "write //bzlint:guards <mutexField> <field,field,...>"
	case "holds":
		return "write //bzlint:holds <mutexField>"
	case "mutsetter":
		return "write //bzlint:mutsetter <route>"
	case "mutroute":
		return "write //bzlint:mutroute <route> <reason>"
	}
	return ""
}

// declDirectives returns the operand lists of every well-formed directive
// with the given verb in a declaration's doc comment.
func declDirectives(doc *ast.CommentGroup, verb string) [][]string {
	if doc == nil {
		return nil
	}
	var out [][]string
	for _, c := range doc.List {
		fields := strings.Fields(strings.TrimPrefix(c.Text, dirPrefix))
		if !strings.HasPrefix(c.Text, dirPrefix) || len(fields) == 0 || fields[0] != verb {
			continue
		}
		args := fields[1:]
		min := directiveMinArgs[verb]
		if len(args) < min || (directiveExactArgs[verb] && len(args) != min) {
			continue // parseDirectives already reported it
		}
		out = append(out, args)
	}
	return out
}

// waived reports whether a diagnostic from the analyzer at pos is
// covered by an allow waiver on the same line or the line above, and
// marks a matching waiver as used.
func (p *pass) waived(f *ast.File, pos token.Pos, analyzer string) bool {
	d := p.dirs[f]
	line := p.fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if w, ok := d.allow[l][analyzer]; ok && w.reason != "" {
			w.used = true
			return true
		}
	}
	return false
}

// orderedWaiver reports whether a map-range at pos carries a
// //bzlint:ordered waiver (same line or line above), marking it used.
func (p *pass) orderedWaiver(f *ast.File, pos token.Pos) bool {
	d := p.dirs[f]
	line := p.fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if w, ok := d.ordered[l]; ok {
			w.used = true
			return true
		}
	}
	return false
}

// emit appends a diagnostic unconditionally (waiver checks happen at the
// call sites, where the owning file is known).
func (p *pass) emit(pos token.Pos, analyzer, msg, hint string) {
	*p.out = append(*p.out, Diagnostic{Pos: p.fset.Position(pos), Analyzer: analyzer, Message: msg, Hint: hint})
}

// report emits unless an allow waiver covers the line.
func (p *pass) report(f *ast.File, pos token.Pos, analyzer, msg, hint string) {
	if p.waived(f, pos, analyzer) {
		return
	}
	p.emit(pos, analyzer, msg, hint)
}

// runStaleAllow reports waivers that suppressed nothing across the whole
// run, and mutroute members that called no setter of their route. Runs
// last: every analyzer must have had its chance to consume them first.
func runStaleAllow(passes map[*Package]*pass) {
	for _, p := range passes {
		for _, d := range p.dirs {
			for _, od := range d.ordered {
				if !od.used {
					p.emit(od.pos, "staleallow",
						"//bzlint:ordered waiver suppresses no diagnostic",
						"the map-range it excused is gone; delete the stale waiver")
				}
			}
			for _, byAn := range d.allow {
				for an, w := range byAn {
					if !w.used {
						p.emit(w.pos, "staleallow",
							fmt.Sprintf("//bzlint:allow %s waiver suppresses no diagnostic", an),
							"the finding it excused is gone; delete the stale waiver")
					}
				}
			}
			for _, rd := range d.routes {
				if !rd.used {
					p.emit(rd.pos, "staleallow",
						fmt.Sprintf("//bzlint:mutroute %s member %s calls no setter of the route", rd.route, rd.fn),
						"the setter call it admitted is gone; delete the stale annotation")
				}
			}
		}
	}
}

// Run executes the analyzer suite over pkgs and returns the surviving
// diagnostics in file/line order. The call-graph analyzers (hotpath,
// deprecated, lockcheck, mutroute) are built over the whole package set,
// so declarations in one package constrain call sites in another.
func Run(fset *token.FileSet, pkgs []*Package, cfg Config) []Diagnostic {
	var out []Diagnostic
	passes := make(map[*Package]*pass, len(pkgs))
	for _, pkg := range pkgs {
		p := &pass{pkg: pkg, fset: fset, dirs: map[*ast.File]*fileDirectives{}, out: &out}
		for _, f := range pkg.Files {
			p.dirs[f] = parseDirectives(p, f)
		}
		passes[pkg] = p
	}
	for _, pkg := range pkgs {
		p := passes[pkg]
		if scopeHas(cfg.Deterministic, pkg) {
			runDeterminism(p)
		}
		if scopeHas(cfg.FloatEq, pkg) {
			runFloatEq(p)
		}
	}
	runHotpath(pkgs, passes)
	runDeprecated(pkgs, passes)
	runStatecov(pkgs, passes)
	runLockcheck(pkgs, passes)
	runMutroute(pkgs, passes)
	if cfg.StaleAllow {
		runStaleAllow(passes)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}
