package ompss

import (
	"math/rand"
	"testing"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// runTasks drives a main process that submits tasks via body, taskwaits and
// shuts down, with nWorkers workers on a small node.
func runTasks(t *testing.T, nWorkers int, body func(p *vtime.Proc, rt *Runtime)) *trace.Trace {
	t.Helper()
	params := knl.DefaultParams()
	node := knl.NewNode(params, nWorkers)
	eng := vtime.NewEngine(node)
	tr := trace.New(nWorkers, params.Freq)
	lanes := make([]int, nWorkers)
	for i := range lanes {
		lanes[i] = i
	}
	rt := New(eng, tr, lanes)
	rt.Overhead = 0
	eng.Spawn("main", func(p *vtime.Proc) {
		body(p, rt)
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	var ends []float64
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		for i := 0; i < 4; i++ {
			rt.Submit(p, "t", nil, 0, func(w *Worker) {
				w.Proc.Sleep(1)
				ends = append(ends, w.Proc.Now())
			})
		}
	})
	for _, e := range ends {
		if e != 1 {
			t.Fatalf("task ended at %v, want 1 (parallel)", e)
		}
	}
}

func TestFlowDependencySerializes(t *testing.T) {
	var order []string
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "w1", []Dep{Out("x")}, 0, func(w *Worker) {
			w.Proc.Sleep(1)
			order = append(order, "w1")
		})
		rt.Submit(p, "r1", []Dep{In("x")}, 0, func(w *Worker) {
			order = append(order, "r1")
		})
		rt.Submit(p, "r2", []Dep{In("x")}, 0, func(w *Worker) {
			order = append(order, "r2")
		})
		rt.Submit(p, "w2", []Dep{Inout("x")}, 0, func(w *Worker) {
			order = append(order, "w2")
		})
	})
	if len(order) != 4 || order[0] != "w1" || order[3] != "w2" {
		t.Fatalf("order %v: writer must come first, second writer last", order)
	}
}

func TestReadersRunConcurrently(t *testing.T) {
	readerEnd := map[string]float64{}
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "w", []Dep{Out("x")}, 0, func(w *Worker) {
			w.Proc.Sleep(1)
		})
		for _, nm := range []string{"a", "b", "c"} {
			nm := nm
			rt.Submit(p, nm, []Dep{In("x")}, 0, func(w *Worker) {
				w.Proc.Sleep(1)
				readerEnd[nm] = w.Proc.Now()
			})
		}
	})
	for nm, e := range readerEnd {
		if e != 2 {
			t.Fatalf("reader %s ended at %v, want 2 (concurrent after writer)", nm, e)
		}
	}
}

func TestAntiDependencyWaitsForReaders(t *testing.T) {
	var w2Start float64
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "w1", []Dep{Out("x")}, 0, func(w *Worker) {})
		rt.Submit(p, "r", []Dep{In("x")}, 0, func(w *Worker) {
			w.Proc.Sleep(2)
		})
		rt.Submit(p, "w2", []Dep{Out("x")}, 0, func(w *Worker) {
			w2Start = w.Proc.Now()
		})
	})
	if w2Start < 2 {
		t.Fatalf("second writer started at %v before reader finished at 2", w2Start)
	}
}

func TestIndependentChainsOverlap(t *testing.T) {
	// Two independent flow chains (as in per-iteration FFT tasks) must
	// overlap on two workers.
	var total float64
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		for c := 0; c < 2; c++ {
			key := c
			for s := 0; s < 3; s++ {
				rt.Submit(p, "step", []Dep{Inout(key)}, 0, func(w *Worker) {
					w.Proc.Sleep(1)
					total = w.Proc.Now()
				})
			}
		}
	})
	if total != 3 {
		t.Fatalf("two independent 3-step chains on 2 workers finished at %v, want 3", total)
	}
}

func TestPriorityOrdering(t *testing.T) {
	var order []string
	runTasks(t, 1, func(p *vtime.Proc, rt *Runtime) {
		// Block the single worker so submissions accumulate.
		rt.Submit(p, "gate", []Dep{}, 0, func(w *Worker) { w.Proc.Sleep(1) })
		rt.Submit(p, "low", nil, 0, func(w *Worker) { order = append(order, "low") })
		rt.Submit(p, "high", nil, 5, func(w *Worker) { order = append(order, "high") })
	})
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("order %v, want high first", order)
	}
}

func TestTaskwaitBlocksUntilDone(t *testing.T) {
	var waitedUntil float64
	params := knl.DefaultParams()
	node := knl.NewNode(params, 2)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0, 1})
	rt.Overhead = 0
	eng.Spawn("main", func(p *vtime.Proc) {
		rt.Submit(p, "slow", nil, 0, func(w *Worker) { w.Proc.Sleep(5) })
		rt.Taskwait(p)
		waitedUntil = p.Now()
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if waitedUntil != 5 {
		t.Fatalf("taskwait returned at %v, want 5", waitedUntil)
	}
}

// Taskwait charges its stall to the runtime's TaskwaitSec account.
func TestTaskwaitSecAccounting(t *testing.T) {
	node := knl.NewNode(knl.DefaultParams(), 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	eng.Spawn("main", func(p *vtime.Proc) {
		rt.Submit(p, "slow", nil, 0, func(w *Worker) { w.Proc.Sleep(3) })
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.TaskwaitSec != 3 {
		t.Fatalf("TaskwaitSec = %v, want 3", rt.TaskwaitSec)
	}
}

// A completed task stays reachable from its regions' last-writer and
// reader lists, so the runtime must drop its body (and whatever the body
// captured) once it has run.
func TestCompletedTaskDropsBody(t *testing.T) {
	var tasks []*Task
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		buf := make([]complex128, 1<<10)
		tasks = append(tasks,
			rt.Submit(p, "writer", []Dep{Out("r")}, 0, func(w *Worker) { buf[0] = 1 }),
			rt.Submit(p, "reader", []Dep{In("r")}, 0, func(w *Worker) { _ = buf[0] }))
	})
	for _, task := range tasks {
		if task.fn != nil {
			t.Errorf("task %q still holds its body after completion", task.label)
		}
	}
}

func TestTaskLoopCoversRange(t *testing.T) {
	covered := make([]bool, 23)
	runTasks(t, 3, func(p *vtime.Proc, rt *Runtime) {
		rt.TaskLoop(p, "loop", 23, 5, func(w *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("index %d covered twice", i)
				}
				covered[i] = true
			}
		})
	})
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestNestedSubmissionFromTask(t *testing.T) {
	var childRan bool
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			rt.Submit(w.Proc, "child", nil, 0, func(w2 *Worker) {
				childRan = true
			})
		})
	})
	if !childRan {
		t.Fatal("nested task did not run")
	}
}

func TestComputeRecordsTraceAndTime(t *testing.T) {
	tr := runTasks(t, 1, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "c", nil, 0, func(w *Worker) {
			w.Compute("phase-a", knl.ClassVector, 1e6)
		})
	})
	if tr.TotalInstr() != 1e6 {
		t.Fatalf("instr %v", tr.TotalInstr())
	}
	if tr.TotalComputeTime() <= 0 {
		t.Fatal("no compute time recorded")
	}
}

func TestOverheadRecordedAsRuntime(t *testing.T) {
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	tr := trace.New(1, params.Freq)
	rt := New(eng, tr, []int{0})
	rt.Overhead = 1e-3
	eng.Spawn("main", func(p *vtime.Proc) {
		for i := 0; i < 3; i++ {
			rt.Submit(p, "t", nil, 0, func(w *Worker) {})
		}
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rtTime := tr.TimeByKind(trace.KindRuntime)[0]
	if rtTime < 2.9e-3 || rtTime > 3.1e-3 {
		t.Fatalf("runtime overhead time %v, want ~3e-3", rtTime)
	}
}

func TestIdleRecordedWhileStarved(t *testing.T) {
	params := knl.DefaultParams()
	node := knl.NewNode(params, 2)
	eng := vtime.NewEngine(node)
	tr := trace.New(2, params.Freq)
	rt := New(eng, tr, []int{0, 1})
	rt.Overhead = 0
	eng.Spawn("main", func(p *vtime.Proc) {
		p.Sleep(2) // workers idle for 2s
		rt.Submit(p, "t", nil, 0, func(w *Worker) {})
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	idle := tr.TimeByKind(trace.KindIdle)
	if idle[0] < 1.9 && idle[1] < 1.9 {
		t.Fatalf("no worker recorded starvation idle: %v", idle)
	}
}

func TestSchedulingDeterministic(t *testing.T) {
	run := func() []float64 {
		var ends []float64
		runTasks(t, 3, func(p *vtime.Proc, rt *Runtime) {
			for i := 0; i < 9; i++ {
				d := float64(i%3+1) * 0.25
				rt.Submit(p, "t", nil, 0, func(w *Worker) {
					w.Proc.Sleep(d)
					ends = append(ends, w.Proc.Now())
				})
			}
		})
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different task counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic schedule at %d: %v vs %v", i, a, b)
		}
	}
}

// Property: for random dependency graphs over random regions, the runtime
// executes every task exactly once, respecting the sequential-consistency
// order implied by the in/out/inout annotations: a task must observe the
// effects of every earlier-submitted task it conflicts with (write-write,
// write-read or read-write on a shared region).
func TestPropertyRandomDAGRespectsDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nTasks := 5 + rng.Intn(30)
		nRegions := 1 + rng.Intn(5)
		nWorkers := 1 + rng.Intn(4)
		type spec struct {
			deps []Dep
		}
		specs := make([]spec, nTasks)
		for i := range specs {
			nd := 1 + rng.Intn(3)
			for d := 0; d < nd; d++ {
				reg := rng.Intn(nRegions)
				mode := []func(any) Dep{In, Out, Inout}[rng.Intn(3)]
				specs[i].deps = append(specs[i].deps, mode(reg))
			}
		}
		finished := make([]int, 0, nTasks) // completion order
		ran := make([]int, nTasks)
		runTasks(t, nWorkers, func(p *vtime.Proc, rt *Runtime) {
			for i := range specs {
				i := i
				rt.Submit(p, "t", specs[i].deps, 0, func(w *Worker) {
					w.Proc.Sleep(float64(1+rng.Intn(3)) * 0.125)
					ran[i]++
					finished = append(finished, i)
				})
			}
		})
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("trial %d: task %d ran %d times", trial, i, n)
			}
		}
		// Verify ordering: for every conflicting pair (i<j), i finishes
		// before j finishes... more precisely j must START after i
		// completes; completion order is a valid witness because j cannot
		// finish before it starts.
		pos := make([]int, nTasks)
		for idx, task := range finished {
			pos[task] = idx
		}
		conflicts := func(a, b []Dep) bool {
			for _, da := range a {
				for _, db := range b {
					if da.Region != db.Region {
						continue
					}
					if da.Mode != ModeIn || db.Mode != ModeIn {
						return true
					}
				}
			}
			return false
		}
		for i := 0; i < nTasks; i++ {
			for j := i + 1; j < nTasks; j++ {
				if conflicts(specs[i].deps, specs[j].deps) && pos[i] > pos[j] {
					t.Fatalf("trial %d: task %d (deps %v) finished after dependent task %d (deps %v)",
						trial, i, specs[i].deps, j, specs[j].deps)
				}
			}
		}
	}
}

// Property: with a single region in inout mode everywhere, execution is
// fully serial regardless of worker count — elapsed equals the sum of task
// durations.
func TestPropertyFullChainIsSerial(t *testing.T) {
	var end float64
	const n = 12
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		for i := 0; i < n; i++ {
			rt.Submit(p, "c", []Dep{Inout("x")}, 0, func(w *Worker) {
				w.Proc.Sleep(0.5)
				end = w.Proc.Now()
			})
		}
	})
	if end != n*0.5 {
		t.Fatalf("chain finished at %v, want %v", end, n*0.5)
	}
}
