// Package ompss is a task-based parallel runtime in the spirit of
// OmpSs/Nanos++, executing inside the vtime discrete-event simulator. Tasks
// are annotated with in/out/inout dependencies over region keys; the runtime
// builds the dependency graph dynamically at submission time and schedules
// ready tasks onto worker threads (hardware lanes of the KNL node model).
//
// This is the substrate for the paper's two optimizations: the per-step
// task version (Figure 4: every FFT step is a task connected by flow
// dependencies, overlapping communication with computation) and the
// per-iteration task version (Figure 5: every FFT is one task, scheduled
// asynchronously to de-synchronize compute phases and soften resource
// contention).
package ompss

import (
	"fmt"
	"strings"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Mode is a dependency direction.
type Mode int

const (
	// ModeIn is a read dependency: the task runs after the region's last
	// writer.
	ModeIn Mode = iota
	// ModeOut is a write dependency: the task runs after the region's
	// last writer and all readers since (anti-dependency).
	ModeOut
	// ModeInout combines both.
	ModeInout
)

// String returns the enumerator name (e.g. "ModeInout"), for diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeIn:
		return "ModeIn"
	case ModeOut:
		return "ModeOut"
	case ModeInout:
		return "ModeInout"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Dep is one dependency clause: a direction over a comparable region key.
type Dep struct {
	Region any
	Mode   Mode
}

// In returns a read dependency on the region.
func In(region any) Dep { return Dep{Region: region, Mode: ModeIn} }

// Out returns a write dependency on the region.
func Out(region any) Dep { return Dep{Region: region, Mode: ModeOut} }

// Inout returns a read-write dependency on the region.
func Inout(region any) Dep { return Dep{Region: region, Mode: ModeInout} }

// Worker is the execution context handed to a task body: the simulated
// process of the worker thread and its hardware lane.
type Worker struct {
	Proc *vtime.Proc
	Lane int
	rt   *Runtime
}

// Compute runs a compute phase of the given class and instruction count on
// the worker's lane, recording a trace interval and the per-phase
// compute-time and instruction counters (the live-IPC inputs).
func (w *Worker) Compute(phase string, class knl.Class, instr float64) {
	start := w.Proc.Now()
	w.Proc.Compute(vtime.Job{Work: instr, Class: int(class), Lane: w.Lane})
	end := w.Proc.Now()
	if w.rt.sink != nil && end > start {
		w.rt.sink.Record(trace.Interval{
			Lane: w.Lane, Start: start, End: end,
			Kind: trace.KindCompute, Phase: phase, Class: int(class), Instr: instr,
		})
	}
	pm := w.rt.phaseMetricsFor(phase)
	pm.seconds.Add(end - start)
	pm.instr.Add(instr)
}

// Task is one schedulable unit of work.
type Task struct {
	id       int
	label    string
	fn       func(w *Worker)
	priority int
	npred    int
	succs    []*Task
	done     bool
	group    *Group // non-nil for group members
}

type regionState struct {
	lastWriter *Task
	readers    []*Task // readers since the last write
}

// Runtime is one task runtime instance (one per MPI rank in the kernel).
type Runtime struct {
	eng     *vtime.Engine
	sink    trace.Sink
	lanes   []int
	ready   []*Task
	readyWQ vtime.WaitQueue
	regions map[any]*regionState
	nextID  int
	pending int
	waitWQ  vtime.WaitQueue
	closed  bool
	tasks   []*Task // all live (not yet completed) tasks, for diagnostics
	nDone   int     // completed tasks still in the tasks slice

	// Overhead is the runtime cost charged per task execution (dependency
	// upkeep and scheduling in Nanos++), recorded as trace.KindRuntime.
	Overhead float64

	// TaskwaitSec accumulates the virtual time this runtime's processes
	// spent blocked in Taskwait (the package metric mTaskwaitSec
	// aggregates across runtimes).
	TaskwaitSec float64

	// Strict enables runtime invariant checks: Taskwait verifies the
	// dependency graph is acyclic before blocking. The public Submit API
	// cannot create cycles (edges always point from older to newer tasks),
	// so a detected cycle means runtime-internal state corruption.
	Strict bool

	// phaseCache holds resolved per-phase metric handles (engine is serial,
	// no locking needed).
	phaseCache map[string]*phaseMetrics
}

// New creates a runtime whose workers run on the given hardware lanes. The
// worker processes are spawned immediately; call Shutdown (usually after a
// final Taskwait) to let them exit. sink receives trace intervals and may
// be nil.
func New(eng *vtime.Engine, sink trace.Sink, lanes []int) *Runtime {
	rt := &Runtime{
		eng:      eng,
		sink:     sink,
		lanes:    lanes,
		regions:  map[any]*regionState{},
		Overhead: 3e-6,
	}
	rt.readyWQ.Describe = func() string {
		return fmt.Sprintf("ompss: worker idle (no ready tasks; %d tasks pending)", rt.pending)
	}
	rt.waitWQ.Describe = func() string {
		return fmt.Sprintf("ompss: Taskwait (%d tasks pending: %s)", rt.pending, rt.pendingSummary())
	}
	for i, lane := range lanes {
		lane := lane
		eng.Spawn(fmt.Sprintf("worker%d.lane%d", i, lane), func(p *vtime.Proc) {
			rt.workerLoop(&Worker{Proc: p, Lane: lane, rt: rt})
		})
	}
	return rt
}

// Workers returns the number of worker threads.
func (rt *Runtime) Workers() int { return len(rt.lanes) }

// Submit creates a task with the given dependencies and priority (higher
// runs first among ready tasks) and enqueues it once its predecessors
// complete. It must be called from a simulated process.
func (rt *Runtime) Submit(p *vtime.Proc, label string, deps []Dep, priority int, fn func(w *Worker)) *Task {
	if rt.closed {
		panic("ompss: submit after shutdown")
	}
	t := &Task{id: rt.nextID, label: label, fn: fn, priority: priority}
	rt.nextID++
	rt.pending++
	mTasksCreated.Inc()
	mTasksInFlight.Add(1)
	rt.tasks = append(rt.tasks, t)
	for _, d := range deps {
		rs := rt.regions[d.Region]
		if rs == nil {
			rs = &regionState{}
			rt.regions[d.Region] = rs
		}
		switch d.Mode {
		case ModeIn:
			rt.addEdge(rs.lastWriter, t)
			rs.readers = append(rs.readers, t)
		case ModeOut, ModeInout:
			rt.addEdge(rs.lastWriter, t)
			for _, r := range rs.readers {
				rt.addEdge(r, t)
			}
			rs.lastWriter = t
			rs.readers = nil
		}
	}
	if t.npred == 0 {
		rt.enqueue(p, t)
	}
	return t
}

func (rt *Runtime) addEdge(from, to *Task) {
	if from == nil || from.done || from == to {
		return
	}
	// A task may already depend on from via another region; duplicate
	// edges are harmless but inflate npred bookkeeping, so dedupe cheaply.
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
	to.npred++
}

func (rt *Runtime) enqueue(p *vtime.Proc, t *Task) {
	rt.ready = append(rt.ready, t)
	mReadyDepth.Add(1)
	rt.readyWQ.WakeOne(p)
}

// popReadyInGroup removes the best ready task belonging to the group.
func (rt *Runtime) popReadyInGroup(g *Group) *Task {
	best := -1
	for i, t := range rt.ready {
		if t.group != g {
			continue
		}
		if best < 0 || t.priority > rt.ready[best].priority ||
			(t.priority == rt.ready[best].priority && t.id < rt.ready[best].id) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	t := rt.ready[best]
	rt.ready = append(rt.ready[:best], rt.ready[best+1:]...)
	mReadyDepth.Add(-1)
	return t
}

// popReady removes the best ready task: highest priority, then lowest id.
func (rt *Runtime) popReady() *Task {
	best := -1
	for i, t := range rt.ready {
		if best < 0 || t.priority > rt.ready[best].priority ||
			(t.priority == rt.ready[best].priority && t.id < rt.ready[best].id) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	t := rt.ready[best]
	rt.ready = append(rt.ready[:best], rt.ready[best+1:]...)
	mReadyDepth.Add(-1)
	return t
}

// runTask executes a claimed task's body, observing its virtual duration,
// and completes it. Shared by the worker loop and inline group execution.
// The task metrics are kept here rather than in complete, which promises
// share: a promise is not a submitted task. The body is dropped once it
// has run: region state keeps completed tasks as last writer and readers
// until the region is written again, and the body's captures (a band's
// buffers) must not live that long.
func (rt *Runtime) runTask(w *Worker, t *Task) {
	start := w.Proc.Now()
	fn := t.fn
	t.fn = nil
	fn(w)
	mTaskDuration.Observe(w.Proc.Now() - start)
	mTasksCompleted.Inc()
	mTasksInFlight.Add(-1)
	rt.complete(w.Proc, t)
}

func (rt *Runtime) workerLoop(w *Worker) {
	for {
		idleStart := w.Proc.Now()
		for len(rt.ready) == 0 {
			if rt.closed {
				return
			}
			rt.readyWQ.Wait(w.Proc)
		}
		t := rt.popReady()
		if rt.sink != nil && w.Proc.Now() > idleStart {
			trace.Recorder{S: rt.sink, Lane: w.Lane}.Idle(idleStart, w.Proc.Now())
		}
		if rt.Overhead > 0 {
			ovStart := w.Proc.Now()
			w.Proc.Sleep(rt.Overhead)
			if rt.sink != nil {
				trace.Recorder{S: rt.sink, Lane: w.Lane}.Runtime(ovStart, w.Proc.Now())
			}
		}
		rt.runTask(w, t)
	}
}

func (rt *Runtime) complete(p *vtime.Proc, t *Task) {
	t.done = true
	for _, s := range t.succs {
		s.npred--
		if s.npred == 0 {
			rt.enqueue(p, s)
		}
	}
	rt.pending--
	rt.nDone++
	if rt.nDone > len(rt.tasks)/2 {
		rt.compactTasks()
	}
	if rt.pending == 0 {
		rt.waitWQ.WakeAll(p)
	}
}

// compactTasks drops completed tasks from the live-task list (amortized
// O(1) per completion via the half-full trigger in complete).
func (rt *Runtime) compactTasks() {
	live := rt.tasks[:0]
	for _, t := range rt.tasks {
		if !t.done {
			live = append(live, t)
		}
	}
	for i := len(live); i < len(rt.tasks); i++ {
		rt.tasks[i] = nil
	}
	rt.tasks = live
	rt.nDone = 0
}

// pendingSummary renders the not-yet-completed tasks with their unmet
// predecessor counts, for deadlock reports. Long lists are truncated.
func (rt *Runtime) pendingSummary() string {
	var sb strings.Builder
	n := 0
	for _, t := range rt.tasks {
		if t.done {
			continue
		}
		if n == 8 {
			sb.WriteString(", ...")
			break
		}
		if n > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%q (%d unmet deps)", t.label, t.npred)
		n++
	}
	if n == 0 {
		return "none"
	}
	return sb.String()
}

// CheckCycles verifies the live dependency graph is acyclic and returns a
// descriptive error naming the tasks on a cycle otherwise. The public Submit
// API cannot create cycles (edges always point from older to newer tasks),
// so a non-nil result indicates corrupted runtime state. In strict mode
// Taskwait runs this check before blocking.
func (rt *Runtime) CheckCycles() error {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // fully explored
	)
	color := map[*Task]int{}
	var path []*Task
	var visit func(t *Task) []*Task
	visit = func(t *Task) []*Task {
		color[t] = grey
		path = append(path, t)
		for _, s := range t.succs {
			if s.done {
				continue
			}
			switch color[s] {
			case white:
				if cyc := visit(s); cyc != nil {
					return cyc
				}
			case grey:
				for i, p := range path {
					if p == s {
						return path[i:]
					}
				}
			}
		}
		color[t] = black
		path = path[:len(path)-1]
		return nil
	}
	for _, t := range rt.tasks {
		if t.done || color[t] != white {
			continue
		}
		if cyc := visit(t); cyc != nil {
			var sb strings.Builder
			for _, c := range cyc {
				fmt.Fprintf(&sb, "%q -> ", c.label)
			}
			fmt.Fprintf(&sb, "%q", cyc[0].label)
			return fmt.Errorf("ompss: dependency cycle among %d tasks: %s", len(cyc), sb.String())
		}
	}
	return nil
}

// Taskwait blocks the calling process until every submitted task has
// completed. In strict mode it first verifies the dependency graph is
// acyclic, panicking with the cycle (which the vtime engine converts into a
// structured Run error) instead of blocking forever.
func (rt *Runtime) Taskwait(p *vtime.Proc) {
	if rt.Strict && rt.pending > 0 {
		if err := rt.CheckCycles(); err != nil {
			panic(err.Error())
		}
	}
	if rt.pending > 0 {
		mTaskwaitStalls.Inc()
		start := p.Now()
		for rt.pending > 0 {
			rt.waitWQ.Wait(p)
		}
		stall := p.Now() - start
		mTaskwaitSec.Add(stall)
		rt.TaskwaitSec += stall
	}
}

// Shutdown lets the worker processes exit once the ready queue drains. Call
// after the final Taskwait.
func (rt *Runtime) Shutdown(p *vtime.Proc) {
	if rt.pending > 0 {
		panic("ompss: shutdown with pending tasks")
	}
	rt.closed = true
	rt.readyWQ.WakeAll(p)
}

// TaskLoop submits one task per grain-sized chunk of [0,n), mirroring the
// OmpSs taskloop construct with a grain size; body receives the chunk
// bounds. The chunks share no dependencies.
func (rt *Runtime) TaskLoop(p *vtime.Proc, label string, n, grain int, body func(w *Worker, lo, hi int)) {
	if grain <= 0 {
		grain = 1
	}
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		rt.Submit(p, fmt.Sprintf("%s[%d:%d]", label, lo, hi), nil, 0, func(w *Worker) {
			body(w, lo, hi)
		})
	}
}
