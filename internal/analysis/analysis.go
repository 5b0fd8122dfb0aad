// Package analysis is a static analyzer for the simulated-HPC programming
// model of this repository (the fftxvet tool). It loads the module with the
// standard library's go/parser + go/types and enforces the correctness
// contracts the mpi, ompss and vtime runtimes expect from their callers:
//
//   - divergence: MPI collectives must be reached by every rank of the
//     communicator, so a collective that is only reachable under a
//     rank-dependent branch is a deadlock in waiting.
//   - tags: collective matching tags must agree across ranks (no
//     rank-dependent tags) and concurrently running collectives on one
//     communicator must use distinct tags.
//   - blockintask: an ompss task body must not issue blocking mpi/vtime
//     calls through a context or process captured from outside the task;
//     the lane-aware entry points (the worker's own context, Group.Wait)
//     are the sanctioned ways to wait inside a task.
//   - copyvalue: the runtime handle types (mpi.World, mpi.Ctx, vtime.Engine,
//     ompss.Runtime, ...) carry identity and internal state; copying them
//     by value silently forks that state.
//   - parbody: par.ParallelFor bodies run on bare host goroutines outside
//     the virtual-time engine, so they must stay pure numeric — no mpi
//     collectives, no blocking vtime waits, no task submission and no
//     simulated Compute charges.
//   - handlerbody: HTTP handler bodies (the net/http
//     (ResponseWriter, *Request) shape, as in internal/serve) run on
//     service goroutines and must not call into mpi/vtime/ompss at all;
//     handlers decode, admit and await while the worker pool does the work.
//   - stagepure: the stage-graph IR (internal/fftx/graph) describes the FFT
//     pipeline as data walked by interchangeable schedulers, so the Stage
//     closures (Instr, Bytes, Count, Body, Part) and the graph package
//     itself must never call mpi/vtime/ompss — synchronization and
//     accounting are the scheduler's job.
//   - hotalloc: the hot paths — fft Plan Transform*/transform* methods,
//     the planar-layout Pack*/Unpack* boundary shims, the graph.Stage
//     model closures and vtime.Machine Rates methods — must not
//     heap-allocate in steady state (the fft package's zero-alloc
//     contract), directly or through any helper.
//   - waitleak: every send on a serve.Server admission queue must be
//     dominated by a drain guard and a deadline check, so requests are
//     rejected with 503 + Retry-After instead of queueing unboundedly.
//   - spanbalance: every request-span handle minted by a SpanSet/SpanRef
//     Begin must be balanced by a deferred or all-paths End (or visibly
//     hand ownership off), so traced requests never publish span trees
//     with phases that run forever.
//
// The contract rules are interprocedural: a call graph over every loaded
// package (callgraph.go) carries per-function effect summaries computed by
// fixpoint (summary.go, taint.go), so a violation buried N helpers deep is
// reported at the offending call with its full path, e.g.
//
//	call to fftx.distribute posts an MPI collective (ParallelFor body →
//	fftx.distribute → fftx.shuffle → mpi.Alltoallv) inside a ...
//
// Findings can be suppressed with a trailing or preceding comment of the
// form:
//
//	//fftxvet:ignore rulename — reason
//
// Stale suppressions (comments that no longer match any finding) are
// reported by UnusedIgnores / fftxvet -unused-ignores.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one rule finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the usual file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries everything a rule run needs. Prog may be nil (a rule must
// degrade to its direct-call checks without it); Pkg is the package under
// analysis, always one of Prog.Pkgs when Prog is set.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Prog *Program
}

// Rule is one named check.
type Rule struct {
	Name string
	Doc  string
	Run  func(p *Pass) []Diagnostic
}

// AllRules returns every registered rule, in stable order.
func AllRules() []Rule {
	return []Rule{DivergenceRule, TagsRule, BlockInTaskRule, CopyValueRule, ParBodyRule, HandlerBodyRule, StagePureRule, HotAllocRule, WaitLeakRule, SpanBalanceRule}
}

// RuleByName resolves a rule name; ok is false for unknown names.
func RuleByName(name string) (Rule, bool) {
	for _, r := range AllRules() {
		if r.Name == name {
			return r, true
		}
	}
	return Rule{}, false
}

// RunRules executes the rules over one package of prog and returns the
// surviving (non-suppressed) findings sorted by position.
func RunRules(prog *Program, pkg *Package, rules []Rule) []Diagnostic {
	diags, _ := RunRulesWithIgnores(prog, pkg, rules)
	return diags
}

// RunRulesWithIgnores is RunRules plus the stale-suppression report: unused
// holds one "unused-ignore" pseudo-finding per //fftxvet:ignore comment that
// suppressed nothing, restricted to comments this rule set could have
// exercised (an ignore naming a rule that did not run is never reported).
func RunRulesWithIgnores(prog *Program, pkg *Package, rules []Rule) (diags, unused []Diagnostic) {
	pass := &Pass{Fset: prog.Fset, Pkg: pkg, Prog: prog}
	for _, r := range rules {
		diags = append(diags, r.Run(pass)...)
	}
	ignores := collectIgnores(prog.Fset, pkg.Files)
	diags = suppress(ignores, diags)
	sortDiags(diags)

	ran := map[string]bool{}
	for _, r := range rules {
		ran[r.Name] = true
	}
	allRan := len(ran) >= len(AllRules())
	for _, ig := range ignores {
		if ig.used {
			continue
		}
		coverable := true
		for name := range ig.rules {
			if name == "all" && !allRan {
				coverable = false
			} else if name != "all" && !ran[name] {
				coverable = false
			}
		}
		if !coverable {
			continue
		}
		unused = append(unused, Diagnostic{
			Pos:     ig.pos,
			Rule:    "unused-ignore",
			Message: "//fftxvet:ignore comment suppresses no finding on this line or the next; remove the stale suppression",
		})
	}
	sortDiags(unused)
	return diags, unused
}

// sortDiags orders findings by file, line, column, rule.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// ignoreComment is one parsed //fftxvet:ignore comment.
type ignoreComment struct {
	pos   token.Position
	rules map[string]bool // rule names, or {"all": true}
	used  bool
}

// collectIgnores parses every //fftxvet:ignore comment of the files.
func collectIgnores(fset *token.FileSet, files []*ast.File) []*ignoreComment {
	var ignores []*ignoreComment
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//fftxvet:ignore")
				if !ok {
					continue
				}
				// Everything up to an em-dash/double-dash separator names
				// the suppressed rules; the rest is the human reason.
				for _, sep := range []string{"—", "--"} {
					if i := strings.Index(text, sep); i >= 0 {
						text = text[:i]
					}
				}
				rules := map[string]bool{}
				for _, name := range strings.FieldsFunc(text, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					rules[name] = true
				}
				if len(rules) == 0 {
					rules["all"] = true
				}
				ignores = append(ignores, &ignoreComment{pos: fset.Position(c.Pos()), rules: rules})
			}
		}
	}
	return ignores
}

// suppress drops diagnostics covered by an //fftxvet:ignore comment on the
// same line or the line directly above, marking the comments that fired.
func suppress(ignores []*ignoreComment, diags []Diagnostic) []Diagnostic {
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		covered := false
		for _, ig := range ignores {
			if ig.pos.Filename != d.Pos.Filename {
				continue
			}
			if ig.pos.Line != d.Pos.Line && ig.pos.Line != d.Pos.Line-1 {
				continue
			}
			if ig.rules[d.Rule] || ig.rules["all"] {
				ig.used = true
				covered = true
			}
		}
		if !covered {
			kept = append(kept, d)
		}
	}
	return kept
}
