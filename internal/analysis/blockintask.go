package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// BlockInTaskRule flags blocking mpi/vtime calls inside ompss task bodies
// that wait through a context or process captured from outside the task. A
// task body runs on an arbitrary worker thread; blocking it through an
// outer rank's process stalls someone else's execution and routinely
// deadlocks the rank. The sanctioned patterns — building an mpi.Ctx from
// the worker's own Proc/Lane inside the body, and Group.Wait (which
// executes ready group tasks while waiting) — are not flagged.
// Runtime.Taskwait inside a task body is always flagged: the waited-for set
// includes the waiting task itself.
var BlockInTaskRule = Rule{
	Name: "blockintask",
	Doc:  "task bodies must not block through outer contexts",
	Run:  runBlockInTask,
}

func runBlockInTask(p *Pass) []Diagnostic {
	info := p.Pkg.Info
	var diags []Diagnostic
	for _, f := range p.Pkg.Files {
		bodies := taskBodies(info, f)
		for _, lit := range bodies {
			isNestedBody := func(n *ast.FuncLit) bool {
				for _, b := range bodies {
					if b == n && b != lit {
						return true
					}
				}
				return false
			}
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok && isNestedBody(fl) {
					return false // the nested task body is its own unit
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil {
					return true
				}
				t := targetOf(fn)
				if t.pkg == "internal/ompss" && t.recv == "Runtime" && t.name == "Taskwait" {
					diags = append(diags, Diagnostic{
						Pos:     p.Fset.Position(call.Pos()),
						Rule:    "blockintask",
						Message: "Taskwait inside a task body waits for the waiting task itself; use a Group and Group.Wait for child tasks",
					})
					return true
				}
				var waiterArg int
				if sig, isColl := mpiCollectives[t]; isColl {
					if isAsyncCollective(t) {
						return true // posts don't block the caller
					}
					_ = sig
					waiterArg = 0 // ctx is the first argument of every entry
				} else if bc, isBlocking := blockingCalls[t]; isBlocking {
					waiterArg = bc.waiterArg
				} else {
					// Interprocedural: a module helper that blocks somewhere
					// down its chain. It is a violation only when the task
					// hands the helper a waiter-carrying handle (mpi.Ctx,
					// vtime.Proc, ...) captured from outside the task — a
					// helper blocking on a context it builds from the
					// worker's own Proc/Lane is the sanctioned pattern.
					s := p.Prog.SummaryFor(fn)
					if s == nil || !s.Set.Has(EffBlocks) {
						return true
					}
					carriers := append([]ast.Expr{receiverExpr(call)}, call.Args...)
					for _, arg := range carriers {
						if arg == nil {
							continue
						}
						tv, ok := info.Types[arg]
						if !ok || !isWaiterCarrier(tv.Type) {
							continue
						}
						root := rootIdent(arg)
						if root == nil {
							continue
						}
						obj := info.Uses[root]
						if obj == nil {
							obj = info.Defs[root]
						}
						if obj == nil || declaredWithin(obj, lit) {
							continue
						}
						diags = append(diags, Diagnostic{
							Pos:  p.Fset.Position(call.Pos()),
							Rule: "blockintask",
							Message: fmt.Sprintf("call to %s blocks inside a task body (%s) through %q, which is captured from outside the task; build the waiting context from the worker's own Proc/Lane (or use the lane-aware Group.Wait)",
								s.Key.Display(), callPath(p.Prog, s.Key, EffBlocks), root.Name),
						})
						break
					}
					return true
				}
				var waiter ast.Expr
				if waiterArg >= 0 {
					if waiterArg >= len(call.Args) {
						return true
					}
					waiter = call.Args[waiterArg]
				} else {
					waiter = receiverExpr(call)
				}
				root := rootIdent(waiter)
				if root == nil {
					return true
				}
				obj := info.Uses[root]
				if obj == nil {
					obj = info.Defs[root]
				}
				if obj == nil || declaredWithin(obj, lit) {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos:  p.Fset.Position(call.Pos()),
					Rule: "blockintask",
					Message: fmt.Sprintf("%s blocks inside a task body through %q, which is captured from outside the task; build the waiting context from the worker's own Proc/Lane (or use the lane-aware Group.Wait)",
						t.name, root.Name),
				})
				return true
			})
		}
	}
	return diags
}

// declaredWithin reports whether obj's declaration lies inside the literal.
func declaredWithin(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
}

// isWaiterCarrier reports whether t (behind pointers) is one of the handle
// types through which a helper can block the simulated runtime on behalf of
// its caller.
func isWaiterCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	return typeIs(t, "internal/mpi", "Ctx") ||
		typeIs(t, "internal/vtime", "Proc") ||
		typeIs(t, "internal/vtime", "WaitQueue") ||
		typeIs(t, "internal/vtime", "Semaphore") ||
		typeIs(t, "internal/vtime", "Queue") ||
		typeIs(t, "internal/vtime", "Barrier") ||
		typeIs(t, "internal/ompss", "Runtime")
}
