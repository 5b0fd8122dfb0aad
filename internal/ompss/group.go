package ompss

import (
	"fmt"

	"repro/internal/vtime"
)

// Group collects related tasks so a parent task can wait for exactly its
// children (the OmpSs nested-task / taskwait-on-children idiom used by the
// paper's nested taskloops in cft_2xy and cft_1z).
type Group struct {
	rt      *Runtime
	pending int
	wq      vtime.WaitQueue
}

// NewGroup returns an empty task group.
func (rt *Runtime) NewGroup() *Group {
	g := &Group{rt: rt}
	g.wq.Describe = func() string {
		return fmt.Sprintf("ompss: group wait (%d tasks of the group pending)", g.pending)
	}
	return g
}

// SubmitInGroup submits a task belonging to the group.
func (rt *Runtime) SubmitInGroup(p *vtime.Proc, g *Group, label string, deps []Dep, priority int, fn func(w *Worker)) *Task {
	if g.rt != rt {
		panic("ompss: group belongs to a different runtime")
	}
	g.pending++
	t := rt.Submit(p, label, deps, priority, func(w *Worker) {
		fn(w)
		g.pending--
		if g.pending == 0 {
			g.wq.WakeAll(w.Proc)
		}
	})
	t.group = g
	return t
}

// TaskLoopInGroup submits one group task per grain-sized chunk of [0,n).
func (rt *Runtime) TaskLoopInGroup(p *vtime.Proc, g *Group, label string, n, grain int, body func(w *Worker, lo, hi int)) {
	if grain <= 0 {
		grain = 1
	}
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		rt.SubmitInGroup(p, g, fmt.Sprintf("%s[%d:%d]", label, lo, hi), nil, 0, func(w *Worker) {
			body(w, lo, hi)
		})
	}
}

// Wait blocks the calling worker until every task of the group has
// completed. While waiting, the worker executes ready tasks belonging to
// the group (the taskwait child-scheduling of Nanos++), so nested taskloops
// make progress even when every worker thread is a waiting parent. Only
// group members are executed inline: picking up arbitrary ready tasks could
// block the waiting worker inside an unrelated MPI call and deadlock the
// rank.
func (g *Group) Wait(w *Worker) {
	rt := g.rt
	for g.pending > 0 {
		if t := rt.popReadyInGroup(g); t != nil {
			rt.runTask(w, t)
			continue
		}
		g.wq.Wait(w.Proc)
	}
}

// Promise is an externally fulfilled pseudo-task: it owns write
// dependencies on its regions from creation, so tasks submitted afterwards
// with read dependencies on those regions wait until Fulfill is called.
// It is the dependency-release half of asynchronous communication (a
// communication thread completes an MPI call and fulfills the promise,
// releasing the compute task that consumes the received data).
type Promise struct {
	rt   *Runtime
	task *Task
}

// NewPromise registers a pseudo-task writing the given regions. The regions
// must have no pending writers or readers (the promise cannot wait). The
// promise counts toward Taskwait's pending set but not toward the task
// metrics: it is never submitted and never runs on a worker.
func (rt *Runtime) NewPromise(label string, regions ...any) *Promise {
	// Validate every region before touching any runtime state, so a panic
	// leaves the runtime consistent.
	for _, reg := range regions {
		if rs := rt.regions[reg]; rs != nil {
			if (rs.lastWriter != nil && !rs.lastWriter.done) || len(rs.readers) > 0 {
				panic(fmt.Sprintf("ompss: promise %q on busy region %v", label, reg))
			}
		}
	}
	t := &Task{id: rt.nextID, label: label}
	rt.nextID++
	rt.pending++
	rt.tasks = append(rt.tasks, t)
	for _, reg := range regions {
		rs := rt.regions[reg]
		if rs == nil {
			rs = &regionState{}
			rt.regions[reg] = rs
		}
		rs.lastWriter = t
		rs.readers = nil
	}
	return &Promise{rt: rt, task: t}
}

// Fulfill completes the promise, releasing every dependent task. It must be
// called from a running simulated process.
func (pr *Promise) Fulfill(p *vtime.Proc) {
	if pr.task.done {
		panic("ompss: promise fulfilled twice")
	}
	pr.rt.complete(p, pr.task)
}
