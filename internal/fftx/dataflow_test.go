package fftx

import (
	"testing"

	"repro/internal/trace"
)

// TaskwaitSec is the main processes' park in the final Taskwait, summed
// over ranks. Every task engine submits its whole schedule up front and
// parks until the last task completes, so at one rank the park is the run;
// at R ranks each rank parks for at most the run.
func TestTaskwaitSecCountsMainPark(t *testing.T) {
	for _, e := range []Engine{EngineTaskIter, EngineTaskCombined, EngineDataflow} {
		for _, ranks := range []int{1, 4} {
			cfg := Config{Ecut: 20, Alat: 12, NB: 32, Ranks: ranks, NTG: 4,
				Engine: e, Mode: ModeCost}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v %dx4: %v", e, ranks, err)
			}
			if ranks == 1 && res.TaskwaitSec != res.Runtime {
				t.Errorf("%v 1x4: TaskwaitSec %v, want the runtime %v", e, res.TaskwaitSec, res.Runtime)
			}
			if bound := float64(ranks) * res.Runtime; res.TaskwaitSec <= 0 || res.TaskwaitSec > bound {
				t.Errorf("%v %dx4: TaskwaitSec %v, want in (0, %v]", e, ranks, res.TaskwaitSec, bound)
			}
		}
	}
}

// Like the combined engine, dataflow workers never block in MPI: every
// scatter is posted asynchronously, so no MPI sync or transfer time may
// appear on any compute lane.
func TestDataflowHidesCommFromLanes(t *testing.T) {
	res, err := Run(testConfig(EngineDataflow, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Trace.Intervals {
		if iv.Kind == trace.KindMPISync || iv.Kind == trace.KindMPITransfer {
			t.Fatalf("dataflow engine recorded lane MPI time: %+v", iv)
		}
	}
}

// On narrow-rank shapes (the committed quick-bench points 1x4 and 2x4) the
// bounded-lookahead dataflow schedule must beat the combined engine's
// greedy one — the BENCH_engines.json claim, held in-tree.
func TestDataflowFasterThanCombinedWhenContended(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		mk := func(e Engine) float64 {
			cfg := Config{Ecut: 10, Alat: 10, NB: 16, Ranks: ranks, NTG: 4,
				Engine: e, Mode: ModeCost}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			return res.Runtime
		}
		df := mk(EngineDataflow)
		comb := mk(EngineTaskCombined)
		if df >= comb {
			t.Fatalf("%dx4: dataflow (%.6f) not faster than task-combined (%.6f)", ranks, df, comb)
		}
	}
}

// Instruction totals are engine-invariant (the jitter draws key on the
// band/position/phase, never the schedule), so the dataflow schedule may
// only move work, not change it.
func TestDataflowInstructionTotalsMatchTaskIter(t *testing.T) {
	mk := func(e Engine) float64 {
		cfg := testConfig(e, 2, 2, 8)
		cfg.Mode = ModeCost
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return res.Trace.TotalInstr()
	}
	if df, it := mk(EngineDataflow), mk(EngineTaskIter); df != it {
		t.Fatalf("instruction totals differ: dataflow %g vs task-iter %g", df, it)
	}
}
