// Package hotalloc seeds violations of the hotalloc rule: heap allocation
// on the zero-alloc hot paths — Transform* methods of Plan* types, the
// graph.Stage model closures (Instr/Bytes/Count/Part) and vtime.Machine
// Rates methods.
package hotalloc

import (
	"fmt"
	"sync"

	"repro/internal/fftx/graph"
	"repro/internal/knl"
	"repro/internal/vtime"
)

// PlanLocal stands in for the fft plan types: the rule keys on the
// Plan*/Transform* shape, not a hard-coded list.
type PlanLocal struct {
	buf  []complex128
	pool sync.Pool
}

func (p *PlanLocal) TransformDirect(n int) {
	p.buf = make([]complex128, n) // want "make([]complex128) allocates in PlanLocal.TransformDirect"
}

// grow allocates at the bottom of a helper chain.
func grow(n int) []complex128 {
	return make([]complex128, n)
}

// scratch is the middle hop: it only forwards to grow.
func scratch(n int) []complex128 {
	return grow(n)
}

func (p *PlanLocal) TransformChained(n int) {
	p.buf = scratch(n) // want "hotalloc.scratch → hotalloc.grow → make"
}

func (p *PlanLocal) TransformFmt(n int) {
	fmt.Println(n) // want "fmt.Println (assumed to allocate) in PlanLocal.TransformFmt"
}

// TransformChecked shows the two sanctioned shapes: allocation inside a
// panic argument is the failure path, and a sync.Pool hit is the scratch
// protocol the contract asks for.
func (p *PlanLocal) TransformChecked(n int) {
	if n < 0 {
		panic(fmt.Sprintf("hotalloc: negative size %d", n))
	}
	s := p.pool.Get()
	defer p.pool.Put(s)
	for i := range p.buf {
		p.buf[i] *= 2
	}
}

// partAlloc is wired into a stage by reference below; its body is scanned
// like an inline literal.
func partAlloc(s *graph.State, p, lo, hi int) {
	s.ZBuf = append(s.ZBuf, 0) // want "append allocates in a graph.Stage Part closure"
}

func stageClosures() graph.Stage {
	return graph.Stage{
		Name: "z-model", Step: "fft-z-fw", Class: knl.ClassStream,
		Split: graph.SplitSticks, LoopName: "cft_1z",
		Instr: func(p int) float64 {
			w := make([]float64, 4) // want "make([]float64) allocates in a graph.Stage Instr closure"
			return w[0]
		},
		Count: func(p int) int { return 4 },
		Part:  partAlloc,
		// Body builds the band's State buffers: allocation by design.
		Body: func(s *graph.State, p int) {
			s.ZBuf = make([]complex128, 64)
		},
	}
}

// notHot shows the scoping: Transform methods on non-Plan receivers and
// plain functions are not hot roots.
type worker struct{ buf []float64 }

func (w *worker) TransformScratch(n int) {
	w.buf = make([]float64, n)
}

func TransformFree(n int) []float64 {
	return make([]float64, n)
}

// VecSoA stands in for the planar layout types: the rule treats
// package-level Pack*/Unpack* functions whose signature mentions an
// SoA-named type as hot roots (the layout boundary shims of the batch
// path).
type VecSoA struct {
	Re, Im []float64
}

// PackVecSoA violates the contract: the shim must fill caller-provided
// planes, never grow them.
func PackVecSoA(v VecSoA, x []complex128) VecSoA {
	v.Re = append(v.Re, 0) // want "append allocates in PackVecSoA"
	for i, c := range x {
		v.Re[i], v.Im[i] = real(c), imag(c)
	}
	return v
}

// UnpackVecSoA is the sanctioned shape: pure loops over preallocated
// planes (a panic argument is the failure path).
func UnpackVecSoA(dst []complex128, v VecSoA) {
	if len(dst) > len(v.Re) {
		panic(fmt.Sprintf("hotalloc: short planes: %d > %d", len(dst), len(v.Re)))
	}
	for i := range dst {
		dst[i] = complex(v.Re[i], v.Im[i])
	}
}

// PackOther does not mention an SoA type, so it is not a root even though
// it allocates.
func PackOther(x []complex128) []float64 {
	return make([]float64, len(x))
}

// transformRowsLocal is an internal layout kernel: lowercase transform*
// methods on Plan* receivers are hot roots too — the batch drivers fan
// out to them.
func (p *PlanLocal) transformRowsLocal(rows int) {
	s := make([]float64, rows) // want "make([]float64) allocates in PlanLocal.transformRowsLocal"
	_ = s
}

// mapMachine stands in for a vtime.Machine: a Rates method taking
// []*vtime.ActiveJob runs on every engine step that changed the job set, so
// it is a hot root. Per-call maps are the allocation the rule exists for.
type mapMachine struct{ demand [3]float64 }

func (m *mapMachine) Rates(jobs []*vtime.ActiveJob) {
	perLane := make(map[int]float64) // want "make(map[int]float64) allocates in mapMachine.Rates"
	for _, j := range jobs {
		perLane[j.Lane] += m.demand[j.Class]
	}
	for _, j := range jobs {
		j.Rate = 1 / (1 + perLane[j.Lane])
	}
}

// sliceMachine is the sanctioned shape: scratch sized once at construction.
type sliceMachine struct{ perLane []float64 }

func (m *sliceMachine) Rates(jobs []*vtime.ActiveJob) {
	clear(m.perLane)
	for _, j := range jobs {
		m.perLane[j.Lane]++
	}
	for _, j := range jobs {
		j.Rate = 1 / m.perLane[j.Lane]
	}
}

// ratesByName shows the scoping by signature: a Rates method that does not
// take the engine's job set is not a root.
type ratesByName struct{}

func (ratesByName) Rates(n int) []float64 { return make([]float64, n) }
