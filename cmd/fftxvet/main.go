// Command fftxvet statically checks code written against the repository's
// simulated-HPC runtimes (internal/mpi, internal/ompss, internal/vtime) for
// the communication and task-model contracts the runtimes cannot express in
// the type system: collective divergence under rank-dependent branches, tag
// discipline, blocking calls inside task bodies through captured contexts,
// by-value copies of runtime handle types, simulated-runtime calls from
// contexts that run on bare host goroutines (par.ParallelFor bodies, HTTP
// handler bodies in internal/serve), runtime calls inside the stage
// closures of the fftx stage-graph IR, allocation on the zero-alloc
// hot paths (transforms, stage models, vtime.Machine rate models), and
// admission-queue sends missing their drain or deadline guards.
//
// The checks are interprocedural: fftxvet builds a call graph with
// per-function effect summaries over every package it loads, so a violation
// buried behind helper functions is reported at the call site with its full
// path (ParallelFor body → distribute → mpi.Alltoallv). Full precision
// therefore needs the whole module in one run — the default "./..." — since
// helpers in packages outside the loaded set have no summaries.
//
// Usage:
//
//	fftxvet [-rules name,name] [-json] [-github] [-unused-ignores] [patterns...]
//
// Patterns follow the go tool's convention: "./..." (the default) analyzes
// every package of the enclosing module; plain directories name single
// packages. Findings print as file:line:col: [rule] message; the exit code
// is 1 when there are findings, 2 on usage or load errors.
//
//	-json            emit findings as a JSON array instead of text
//	-github          additionally emit GitHub Actions ::error annotations
//	-unused-ignores  report //fftxvet:ignore comments that suppress nothing
//
// Suppress a finding with a trailing or preceding comment:
//
//	//fftxvet:ignore rulename — reason
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	ruleNames := flag.String("rules", "", "comma-separated rule subset (default: all rules)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	github := flag.Bool("github", false, "additionally emit GitHub Actions ::error annotations")
	unusedIgnores := flag.Bool("unused-ignores", false, "report //fftxvet:ignore comments that suppress nothing")
	flag.Parse()

	rules := analysis.AllRules()
	if *ruleNames != "" {
		rules = rules[:0]
		for _, name := range strings.Split(*ruleNames, ",") {
			r, ok := analysis.RuleByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "fftxvet: unknown rule %q\n", name)
				os.Exit(2)
			}
			rules = append(rules, r)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxvet:", err)
		os.Exit(2)
	}
	modRoot, err := analysis.FindModRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxvet:", err)
		os.Exit(2)
	}
	ldr, err := analysis.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxvet:", err)
		os.Exit(2)
	}
	dirs, err := ldr.Discover(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxvet:", err)
		os.Exit(2)
	}

	// Load everything first: the call graph and effect summaries span every
	// package of the run, so helper chains crossing package boundaries
	// resolve.
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := ldr.Load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fftxvet: %s: %v\n", dir, err)
			os.Exit(2)
		}
		if len(pkg.TypeErrors) > 0 {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "fftxvet: %s: %v\n", rel(dir), terr)
			}
			os.Exit(2)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := analysis.NewProgram(ldr, pkgs)

	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, unused := analysis.RunRulesWithIgnores(prog, pkg, rules)
		all = append(all, diags...)
		if *unusedIgnores {
			all = append(all, unused...)
		}
	}
	for i := range all {
		all[i].Pos.Filename = rel(all[i].Pos.Filename)
	}

	if *jsonOut {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		findings := make([]finding, 0, len(all))
		for _, d := range all {
			findings = append(findings, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "fftxvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	if *github {
		for _, d := range all {
			fmt.Printf("::error file=%s,line=%d,col=%d::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, annotationEscape("["+d.Rule+"] "+d.Message))
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "fftxvet: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// annotationEscape escapes a message for a GitHub Actions workflow command.
func annotationEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// rel shortens a path relative to the working directory for readable
// output; absolute paths are kept when outside it.
func rel(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if r, err := filepath.Rel(wd, path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}
