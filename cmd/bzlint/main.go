// Command bzlint runs the repository's static analyzers (internal/lint)
// over the given package patterns.
//
//	go run ./cmd/bzlint ./...                 # whole tree (what `make lint` runs)
//	go run ./cmd/bzlint ./internal/wsn        # one package
//	go run ./cmd/bzlint -hints ./internal/... # with suggested rewrites
//	go run ./cmd/bzlint -json ./...           # machine-readable diagnostics
//
// The suite is eight analyzers: determinism, hotpath, floateq,
// deprecated, statecov, lockcheck, mutroute and testonly, plus the
// stale-waiver report (-staleallow, on by default). testonly needs every
// reference in the module, so it runs only when a pattern is ./...; a
// narrower run skips it and its waivers. When the CI environment variable
// is set, diagnostics are also emitted as GitHub Actions
// ::error annotations so findings surface inline on the PR diff.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on a
// load or type-check failure. The analyzers and the directive syntax
// (//bzlint:ordered, //bzlint:allow, //bzlint:hotpath, //bzlint:state,
// //bzlint:guards, //bzlint:holds, //bzlint:mutsetter, //bzlint:mutroute)
// are documented in DESIGN.md §7 "Static invariants".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"bubblezero/internal/lint"
)

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

// wholeModule reports whether the patterns load the whole module, the
// only run whose reference set lets testonly tell a test-only identifier
// from one that a package outside the run uses.
func wholeModule(patterns []string) bool {
	for _, p := range patterns {
		if p == "./..." || p == "..." {
			return true
		}
	}
	return false
}

func main() {
	hints := flag.Bool("hints", false, "print a suggested rewrite under each diagnostic (make lint-fix-hints)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	staleAllow := flag.Bool("staleallow", true, "report //bzlint waivers that no longer suppress any diagnostic and mutroute members that call no setter")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bzlint [-hints] [-json] [-staleallow=false] [packages]\n\npackages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bzlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bzlint:", err)
		os.Exit(2)
	}
	cfg := lint.DefaultConfig()
	cfg.StaleAllow = *staleAllow
	cfg.TestOnly = wholeModule(patterns)
	diags := lint.Run(loader.Fset, pkgs, cfg)

	ci := os.Getenv("CI") != ""
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message, Hint: d.Hint,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "bzlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			if *hints && d.Hint != "" {
				fmt.Println("    hint:", d.Hint)
			}
		}
	}
	if ci {
		// GitHub Actions workflow commands: one inline annotation per
		// finding, in addition to the normal output above.
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d::[%s] %s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bzlint: %d diagnostic(s) in %d package(s); run `make lint-fix-hints` for suggested rewrites\n",
			len(diags), len(pkgs))
		os.Exit(1)
	}
}
