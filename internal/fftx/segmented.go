package fftx

import (
	"fmt"

	"repro/internal/fftx/graph"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

// runSegmented schedules the stage graph as per-band segment tasks with
// asynchronous scatters — the paper's future-work direction (Section VI:
// "combine the approaches to overlap communication and computation with
// asynchronously scheduled tasks", referencing the hybrid MPI/SMPSs
// communication-thread technique). The graph's scatter stages split each
// band's pipeline into compute segments (forward Z, XY, backward Z); each
// segment is one task whose priority is its segment index, so among ready
// tasks the band furthest along its pipeline runs first. Segment i+1 reads
// a region owned by a promise that the communication thread fulfills when
// segment i's scatter completes, so a worker never blocks inside MPI:
// while band b's scatter is in flight, it picks up another band's segment.
//
// window bounds the lookahead. With window > 0, band b's first segment
// also reads the region written by band b−window's last segment, capping
// the in-flight bands per rank at window; window = 0 means no limit.
//
//   - EngineTaskCombined is window = 0: workers greedily open a new band
//     whenever a scatter is in flight, which keeps every lane of the node
//     computing the same phase class at once — exactly the concurrency the
//     paper's KNL contention model punishes (Figure 3's IPC collapse).
//   - EngineDataflow is window = NTG: at most one band per worker is in
//     flight. The window trades that contention for short idle gaps, the
//     same exchange that makes the per-iteration engine fast, without its
//     lanes ever blocking inside MPI; on narrow-rank shapes it beats the
//     unbounded schedule outright (see BENCH_engines.json).
func runSegmented(cfg Config, window int) (*Result, error) {
	R, T := cfg.Ranks, cfg.NTG
	h := newHarness(cfg, R, T)
	k := h.k
	ft := h.newFlat()
	segs, scatters := k.pipe.Segments()
	jobs := h.jobs()

	// scatKey is the region segment i of band b hands to segment i+1 through
	// scatter i; bandKey is the region band b's last segment writes.
	type scatKey struct{ b, i int }
	type bandKey struct{ b int }

	worldComm := h.w.CommWorld()
	for p := 0; p < R; p++ {
		p := p
		rt := h.newRankRuntime(p*T, T)
		h.eng.Spawn(fmt.Sprintf("rank%d.main", p), func(mp *vtime.Proc) {
			for b := 0; b < jobs; b++ {
				b := b
				s := &graph.State{Job: b}
				for i, seg := range segs {
					i, seg := i, seg
					var deps []ompss.Dep
					if i > 0 {
						deps = append(deps, ompss.In(scatKey{b, i - 1}))
					} else if window > 0 && b >= window {
						deps = append(deps, ompss.In(bandKey{b - window}))
					}
					var scattered *ompss.Promise
					if i < len(scatters) {
						scattered = rt.NewPromise(fmt.Sprintf("scat%d.b%d", i, b), scatKey{b, i})
					} else {
						deps = append(deps, ompss.Out(bandKey{b}))
					}
					rt.Submit(mp, fmt.Sprintf("seg%d.b%d", i, b), deps, i, func(wk *ompss.Worker) {
						if i == 0 {
							ft.pack(wk, p, b, s)
						}
						for _, st := range seg {
							k.runStage(wk, st, s, p)
						}
						if scattered != nil {
							k.runScatterAsync(h.ctx(wk, p), worldComm, b, scatters[i], s, p, scattered.Fulfill)
						} else {
							ft.unpack(wk, p, b, s)
						}
					})
				}
			}
			rt.Taskwait(mp)
			rt.Shutdown(mp)
		})
	}
	return h.finish(ft.collect)
}
