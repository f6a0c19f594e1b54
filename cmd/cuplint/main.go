// Command cuplint is CUP's multichecker: it runs the repository's
// custom static-analysis passes (determinism, hotpath,
// eventexhaustive, ctxdiscipline) over the tree. It loads packages via
// `go list -export` and prints file:line:col diagnostics:
//
//	cuplint ./...
//
// Exit status is 2 when any diagnostic is reported, 0 on a clean run,
// 1 on operational errors — matching go vet's convention.
package main

import (
	"flag"
	"fmt"
	"os"

	"cup/internal/analysis"
	"cup/internal/analysis/ctxdiscipline"
	"cup/internal/analysis/determinism"
	"cup/internal/analysis/eventexhaustive"
	"cup/internal/analysis/hotpath"
)

// Suite is the cuplint pass suite, in report order.
var Suite = []*analysis.Analyzer{
	ctxdiscipline.Analyzer,
	determinism.Analyzer,
	eventexhaustive.Analyzer,
	hotpath.Analyzer,
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("cuplint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	dir := fs.String("C", ".", "change to `dir` before loading packages")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cuplint [-list] [-C dir] packages...\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	if *list {
		for _, a := range Suite {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cuplint: %v\n", err)
		return 1
	}
	diags, err := analysis.RunAnalyzers(pkgs, Suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cuplint: %v\n", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	base, _ := os.Getwd()
	if *dir != "." {
		base = *dir
	}
	for _, d := range diags {
		fmt.Println(analysis.Format(pkgs[0].Fset, base, d))
	}
	return 2
}
