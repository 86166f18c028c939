// Command flashvet runs the repo's custom invariant analyzers over the
// module: determinism (no wall clock / global rand / unordered map
// folds in simulation packages), hotpath (no allocation-prone
// constructs reachable from //flashvet:hotpath functions), boundsafe
// (exported accessors on //flashvet:boundsafe types bounds-check
// parameter-derived indices) and testonly (every exported name under
// internal/ has a non-test reader or a //flashvet:testonly reason).
//
// Usage:
//
//	go run ./cmd/flashvet ./...
//
// Exit status is 0 when the tree is clean, 1 when any analyzer reports
// a finding, 2 on load/usage errors. The implementation is stdlib-only
// (go/parser + go/types over `go list -export` data) so the module
// keeps zero external dependencies; see internal/analysis/flashvet.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ppbflash/internal/analysis/boundsafe"
	"ppbflash/internal/analysis/determinism"
	"ppbflash/internal/analysis/flashvet"
	"ppbflash/internal/analysis/hotpath"
	"ppbflash/internal/analysis/testonly"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset (determinism,hotpath,boundsafe,testonly)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flashvet [-only a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	all := []*flashvet.Analyzer{
		determinism.Default(),
		hotpath.New(),
		boundsafe.New(),
		testonly.Default(),
	}
	analyzers := all
	if *only != "" {
		byName := make(map[string]*flashvet.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "flashvet: unknown analyzer %q (have determinism, hotpath, boundsafe, testonly)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashvet: %v\n", err)
		os.Exit(2)
	}
	prog, err := flashvet.Load(wd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	diags, err := flashvet.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "flashvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
