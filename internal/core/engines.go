package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/fftx"
)

// EnginesResult is the engine-selection matrix: the simulated cost-mode
// runtime of every engine across the rank sweep, plus the engine the
// EngineAuto cost-model selector picks at each point. It makes the
// selector's decision surface inspectable — and lets the benchmark verify
// that "auto" tracks the measured minimum.
type EnginesResult struct {
	NTG     int
	Engines []fftx.Engine
	Rows    []EnginesRow
}

// EnginesRow is one rank configuration of the matrix.
type EnginesRow struct {
	Ranks int
	// Runtime holds one entry per EnginesResult.Engines; NaN marks an
	// engine the configuration cannot run (lane budget, shape limits).
	Runtime []float64
	// Taskwait holds the per-engine time parked in Taskwait (summed over
	// ranks), parallel to Runtime — zero for original, which has no task
	// runtime, NaN where Runtime is NaN.
	Taskwait []float64
	// Selected is the engine EngineAuto resolves to at this point.
	Selected fftx.Engine
}

// Fastest returns the applicable engine with the smallest measured runtime
// (ties keep declaration order, matching the selector's determinism).
func (r *EnginesRow) Fastest(engines []fftx.Engine) (fftx.Engine, float64) {
	best, bestT := engines[0], math.Inf(1)
	for i, e := range engines {
		t := r.Runtime[i]
		if !math.IsNaN(t) && t < bestT {
			best, bestT = e, t
		}
	}
	return best, bestT
}

// Engines measures the matrix over the suite's rank sweep.
func (s Suite) Engines() (*EnginesResult, error) {
	out := &EnginesResult{
		NTG: s.NTG,
		Engines: []fftx.Engine{
			fftx.EngineOriginal, fftx.EngineTaskSteps,
			fftx.EngineTaskIter, fftx.EngineTaskCombined,
			fftx.EngineDataflow,
		},
	}
	for _, r := range s.RankList {
		row := EnginesRow{
			Ranks:    r,
			Runtime:  make([]float64, len(out.Engines)),
			Taskwait: make([]float64, len(out.Engines)),
		}
		for i, e := range out.Engines {
			cfg := s.config(e, r)
			cfg.Mode = fftx.ModeCost
			res, err := fftx.Run(cfg)
			if err != nil {
				// Not every engine fits every point (task-steps doubles the
				// lane count); an inapplicable cell is part of the matrix.
				row.Runtime[i] = math.NaN()
				row.Taskwait[i] = math.NaN()
				continue
			}
			row.Runtime[i] = res.Runtime
			row.Taskwait[i] = res.TaskwaitSec
		}
		sel, err := fftx.SelectEngine(s.config(fftx.EngineAuto, r))
		if err != nil {
			return nil, fmt.Errorf("core: engines %dx%d: auto selection: %w", r, s.NTG, err)
		}
		row.Selected = sel
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the matrix with the selector's pick per configuration.
func (r *EnginesResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Engine matrix — cost-mode runtime per engine and the auto selector's pick\n")
	fmt.Fprintf(&sb, "%8s", "config")
	for _, e := range r.Engines {
		fmt.Fprintf(&sb, " %14s", e.String())
	}
	fmt.Fprintf(&sb, " %16s\n", "auto picks")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%8s", fmt.Sprintf("%d x %d", row.Ranks, r.NTG))
		for i := range r.Engines {
			if math.IsNaN(row.Runtime[i]) {
				fmt.Fprintf(&sb, " %14s", "n/a")
				continue
			}
			fmt.Fprintf(&sb, " %13.4fs", row.Runtime[i])
		}
		mark := ""
		if fastest, _ := row.Fastest(r.Engines); fastest != row.Selected {
			mark = " (!)"
		}
		fmt.Fprintf(&sb, " %16s\n", row.Selected.String()+mark)
	}
	sb.WriteString("the selector probes the same cost model, so \"auto picks\" tracks each row's minimum\n")
	return sb.String()
}
