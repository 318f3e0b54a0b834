// Command tfsnvet runs the repo-specific analyzers in internal/lint
// over the named packages.
//
// Usage:
//
//	tfsnvet [-json] [-analyzers noalloc,viewlife,...] [packages]
//
// Packages default to ./... — run over the whole module: the viewlife,
// atomicmix and testonly analyzers gather cross-package facts, and on
// partial loads the first two under-report while testonly flags names
// whose only users were left out.
//
// Exit codes: 0 no findings, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tfsnvet", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line:col lines")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tfsnvet [-json] [-analyzers a,b,...] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *names != "" {
		analyzers = nil
		for _, name := range strings.Split(*names, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "tfsnvet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfsnvet: %v\n", err)
		return 2
	}

	diags := lint.RunAnalyzers(pkgs, analyzers)
	if *jsonOut {
		type finding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "tfsnvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
