package ompss

import (
	"testing"

	"repro/internal/knl"
	"repro/internal/vtime"
)

func TestGroupWaitBlocksUntilChildrenDone(t *testing.T) {
	var parentEnd float64
	runTasks(t, 3, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			g := rt.NewGroup()
			for i := 0; i < 4; i++ {
				rt.SubmitInGroup(w.Proc, g, "child", nil, 0, func(w2 *Worker) {
					w2.Proc.Sleep(1)
				})
			}
			g.Wait(w)
			parentEnd = w.Proc.Now()
		})
	})
	// 4 children of 1s on 3 workers (parent helps): 2 rounds.
	if parentEnd < 1 || parentEnd > 2.5 {
		t.Fatalf("parent resumed at %v", parentEnd)
	}
}

func TestGroupWaitExecutesTasksInline(t *testing.T) {
	// Single worker: the parent occupies the only worker, so the children
	// can only run if Wait executes them inline.
	var done int
	runTasks(t, 1, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			g := rt.NewGroup()
			for i := 0; i < 3; i++ {
				rt.SubmitInGroup(w.Proc, g, "child", nil, 0, func(w2 *Worker) {
					done++
				})
			}
			g.Wait(w)
		})
	})
	if done != 3 {
		t.Fatalf("children executed: %d", done)
	}
}

func TestTaskLoopInGroupCoversRange(t *testing.T) {
	covered := make([]bool, 17)
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			g := rt.NewGroup()
			rt.TaskLoopInGroup(w.Proc, g, "loop", 17, 4, func(w2 *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					covered[i] = true
				}
			})
			g.Wait(w)
			for i, c := range covered {
				if !c {
					t.Errorf("index %d not covered before Wait returned", i)
				}
			}
		})
	})
}

func TestNestedGroupsParallelizeCompute(t *testing.T) {
	// One parent task splits compute over 4 workers via a group: elapsed
	// must approach 1/4 of serial under the unit-rate machine.
	params := knl.DefaultParams()
	node := knl.NewNode(params, 4)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0, 1, 2, 3})
	rt.Overhead = 0
	var elapsed float64
	eng.Spawn("main", func(p *vtime.Proc) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			start := w.Proc.Now()
			g := rt.NewGroup()
			rt.TaskLoopInGroup(w.Proc, g, "chunks", 8, 2, func(w2 *Worker, lo, hi int) {
				w2.Compute("c", knl.ClassVector, 1e6*float64(hi-lo))
			})
			g.Wait(w)
			elapsed = w.Proc.Now() - start
		})
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Serial would take 8e6 instructions at ~base rate; 4 workers should be
	// within ~2.2x of the perfect quarter (contention slows all four).
	serial := 8e6 / (params.Freq * params.BaseIPC[knl.ClassVector])
	if elapsed > serial/1.8 {
		t.Fatalf("group loop elapsed %v, serial %v — no parallel speedup", elapsed, serial)
	}
}

func TestPromiseGatesDependentTask(t *testing.T) {
	var taskStart float64
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		pr := rt.NewPromise("comm", "region")
		rt.Submit(p, "consumer", []Dep{In("region")}, 0, func(w *Worker) {
			taskStart = w.Proc.Now()
		})
		// An unrelated process fulfills the promise at t=3.
		p.Engine().Spawn("fulfiller", func(fp *vtime.Proc) {
			fp.Sleep(3)
			pr.Fulfill(fp)
		})
	})
	if taskStart < 3 {
		t.Fatalf("consumer started at %v before promise fulfilled at 3", taskStart)
	}
}

func TestPromiseDoubleFulfillPanics(t *testing.T) {
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	var recovered bool
	eng.Spawn("main", func(p *vtime.Proc) {
		pr := rt.NewPromise("x", "r")
		pr.Fulfill(p)
		func() {
			defer func() { recovered = recover() != nil }()
			pr.Fulfill(p)
		}()
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("double fulfill did not panic")
	}
}

func TestPromiseOnBusyRegionPanics(t *testing.T) {
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	var recovered bool
	eng.Spawn("main", func(p *vtime.Proc) {
		pr := rt.NewPromise("first", "r")
		func() {
			defer func() { recovered = recover() != nil }()
			rt.NewPromise("second", "r")
		}()
		pr.Fulfill(p)
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("promise on busy region did not panic")
	}
}

func TestTaskwaitIncludesPromises(t *testing.T) {
	var waited float64
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	eng.Spawn("main", func(p *vtime.Proc) {
		pr := rt.NewPromise("comm", "r")
		p.Engine().Spawn("fulfiller", func(fp *vtime.Proc) {
			fp.Sleep(5)
			pr.Fulfill(fp)
		})
		rt.Taskwait(p)
		waited = p.Now()
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 5 {
		t.Fatalf("taskwait returned at %v, want 5", waited)
	}
}

// A promise is not a submitted task: a run that creates and fulfills one
// moves the task metrics by its real tasks only and leaves in-flight where
// it started.
func TestPromiseNotCountedAsTask(t *testing.T) {
	created, completed, inFlight := mTasksCreated.Value(), mTasksCompleted.Value(), mTasksInFlight.Value()
	runTasks(t, 1, func(p *vtime.Proc, rt *Runtime) {
		pr := rt.NewPromise("comm", "r")
		rt.Submit(p, "consumer", []Dep{In("r")}, 0, func(w *Worker) {})
		pr.Fulfill(p)
	})
	if d := mTasksCreated.Value() - created; d != 1 {
		t.Errorf("tasks created delta = %g, want 1", d)
	}
	if d := mTasksCompleted.Value() - completed; d != 1 {
		t.Errorf("tasks completed delta = %g, want 1", d)
	}
	if d := mTasksInFlight.Value() - inFlight; d != 0 {
		t.Errorf("tasks in flight delta = %g, want 0", d)
	}
}

// Regression: a worker waiting on a nested group must NOT pick up arbitrary
// ready tasks (it could block inside an unrelated MPI call and deadlock the
// rank); it may only execute its group's children. The scenario: the only
// other ready task blocks forever — Wait must still return once the
// children (run inline) finish.
func TestGroupWaitDoesNotStealUnrelatedTasks(t *testing.T) {
	var gate vtime.WaitQueue
	var waitReturned bool
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	eng.Spawn("main", func(p *vtime.Proc) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			g := rt.NewGroup()
			// An unrelated "poison" task that would block forever.
			rt.Submit(w.Proc, "poison", nil, 10, func(w2 *Worker) {
				gate.Wait(w2.Proc)
			})
			rt.SubmitInGroup(w.Proc, g, "child", nil, 0, func(w2 *Worker) {})
			g.Wait(w)
			waitReturned = true
			// Unblock the poison task so the run can finish.
			rt.Submit(w.Proc, "release", nil, 0, func(w2 *Worker) {})
		})
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	// The poison task still blocks at the end; release it from a second
	// process once the parent observed completion.
	eng.Spawn("releaser", func(p *vtime.Proc) {
		for !waitReturned {
			p.Sleep(0.1)
		}
		gate.WakeAll(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !waitReturned {
		t.Fatal("group wait never returned")
	}
}
