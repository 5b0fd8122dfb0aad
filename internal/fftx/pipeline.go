package fftx

import (
	"fmt"

	"repro/internal/fftx/graph"
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

// The stage walkers: how a scheduler executes the nodes of the stage
// graph. Compute stages become jittered compute phases on the calling
// lane (with the real data transform in ModeReal); scatter stages become
// Alltoallv collectives — synchronous, cost-only or asynchronous,
// whichever policy the engine implements.

// runStage executes one compute stage of the graph on computer c.
func (k *kernel) runStage(c computer, st *graph.Stage, s *graph.State, p int) {
	var work func()
	if st.Body != nil {
		work = func() { st.Body(s, p) }
	}
	k.phase(c, s.Job, p, st.Name, st.Class, st.Instr(p), work)
}

// partStage executes the [lo,hi) sub-range of a splittable compute stage,
// charging the proportional share of the stage's instructions — the body
// of the nested task loops (paper Figure 4, cft_1z/cft_2xy).
func (k *kernel) partStage(c computer, st *graph.Stage, s *graph.State, p, lo, hi int) {
	frac := float64(hi-lo) / float64(st.Count(p))
	var work func()
	if st.Part != nil {
		work = func() { st.Part(s, p, lo, hi) }
	}
	k.phase(c, s.Job, p, st.Name, st.Class, st.Instr(p)*frac, work)
}

// nestedLoop runs a splittable stage as a nested task loop executed by all
// of the rank's workers, waiting for the group before continuing the step.
func (k *kernel) nestedLoop(rt *ompss.Runtime, wk *ompss.Worker, it int, st *graph.Stage, s *graph.State, p int) {
	grain := k.cfg.NestedGrainZ
	if st.Split == graph.SplitPlanes {
		grain = k.cfg.NestedGrainXY
	}
	grp := rt.NewGroup()
	rt.TaskLoopInGroup(wk.Proc, grp, fmt.Sprintf("%s.it%d", st.LoopName, it),
		st.Count(p), grain,
		func(w2 *ompss.Worker, lo, hi int) {
			k.partStage(w2, st, s, p, lo, hi)
		})
	grp.Wait(wk)
}

// runScatter executes a scatter stage synchronously on comm: real data in
// ModeReal, the equivalent synchronization and transfer cost without
// payload in ModeCost. seq is the scheduler's tag base (the iteration for
// the grouped engines, the job for the flat ones).
func (k *kernel) runScatter(ctx *mpi.Ctx, comm *mpi.Comm, seq int, st *graph.Stage, s *graph.State, p int) {
	tag := 2*seq + st.TagOff
	if k.cfg.Mode == ModeReal {
		s.Chunks = mpi.Alltoallv(ctx, comm, tag, s.Chunks, mpi.BytesComplex128)
		return
	}
	comm.CollectiveCost(ctx, mpi.OpAlltoallv, tag, st.Bytes(p))
	s.Chunks = nil
}

// runScatterAsync posts a scatter stage asynchronously (the combined
// engine's communication-thread scatters) and calls done from the
// handling process once the exchange completes.
func (k *kernel) runScatterAsync(ctx *mpi.Ctx, comm *mpi.Comm, seq int, st *graph.Stage, s *graph.State, p int, done func(hp *vtime.Proc)) {
	tag := 2*seq + st.TagOff
	if k.cfg.Mode == ModeReal {
		mpi.IAlltoallv(ctx, comm, tag, s.Chunks, mpi.BytesComplex128,
			func(hp *vtime.Proc, recv [][]complex128) {
				s.Chunks = recv
				done(hp)
			})
		return
	}
	mpi.ICollectiveCost(ctx, comm, mpi.OpAlltoallv, tag, st.Bytes(p), done)
}

// walk executes the whole pipeline in stage order on one computer, with
// synchronous scatters on comm — the fully sequential per-job schedule of
// the original and per-iteration engines.
func (k *kernel) walk(c computer, ctx *mpi.Ctx, comm *mpi.Comm, seq int, s *graph.State, p int) {
	for i := range k.pipe.Stages {
		st := &k.pipe.Stages[i]
		if st.Kind == graph.Scatter {
			k.runScatter(ctx, comm, seq, st, s, p)
			continue
		}
		k.runStage(c, st, s, p)
	}
}

// Run executes the configured engine and returns its result. EngineAuto
// resolves to the cost-model-fastest applicable engine first (see
// SelectEngine).
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	requestedAuto := cfg.Engine == EngineAuto
	if requestedAuto {
		e, err := selectEngine(cfg)
		if err != nil {
			return nil, err
		}
		mAutoSelected.With(e.String()).Inc()
		cfg.Engine = e
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mRuns.With(cfg.Engine.String()).Inc()
	mFreq.Set(cfg.Params.Freq)
	res, err := runEngine(cfg)
	if err == nil && requestedAuto {
		res.Trace.Meta["engine-requested"] = EngineAuto.String()
	}
	return res, err
}

// runEngine dispatches an already-validated, concrete-engine config.
func runEngine(cfg Config) (*Result, error) {
	switch cfg.Engine {
	case EngineOriginal:
		return runOriginal(cfg)
	case EngineTaskSteps:
		return runTaskSteps(cfg)
	case EngineTaskIter:
		return runTaskIter(cfg)
	case EngineTaskCombined:
		return runSegmented(cfg, 0)
	case EngineDataflow:
		return runSegmented(cfg, cfg.NTG)
	}
	return nil, errUnknownEngine(cfg.Engine)
}

type errUnknownEngine Engine

func (e errUnknownEngine) Error() string {
	return "fftx: unknown engine " + Engine(e).String()
}
