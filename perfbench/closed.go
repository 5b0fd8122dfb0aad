package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/fft"
	"repro/internal/fftx"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/pop"
	"repro/internal/pw"
)

// The two closed-loop workloads run fftx.Run over a fixed round-robin list
// of configurations, one run at a time: the next run starts when the
// previous one has returned and been checked.

var engineList = []fftx.Engine{
	fftx.EngineOriginal, fftx.EngineTaskSteps, fftx.EngineTaskIter,
	fftx.EngineTaskCombined, fftx.EngineDataflow,
}

// closedSpec describes one closed-loop workload.
type closedSpec struct {
	name    string
	configs []fftx.Config
	// setups is how many fresh processes time the cold set-up; setup_s is
	// their median.
	setups int
	// popRanks selects the configs whose traces feed the pop.* factors.
	popRanks int
	// prepare runs once before the measured loop (reference results); it
	// is not part of set-up time.
	prepare func()
	// check validates one run; bytes is the run's MPI byte count.
	check func(idx int, cfg fftx.Config, res *fftx.Result, bytes float64) error
	// replay adds the layer replays of a traced run.
	replay func(o *outcome)
	// inexact counts repeats whose virtual runtime matched the first run
	// only within repeatTol, not bit for bit; inexactNotes keeps the first
	// few for the report.
	inexact      int
	inexactNotes []string
}

// repeatTol is the relative drift a repeat's virtual runtime may show
// against the config's first run before the repeat fails. The seed program
// drifts by a few ULPs (about 1e-15) where lanes share cores, because
// knl.Node.Rates sums the per-core load in map order; a wrong schedule
// moves the runtime by far more than 1e-9.
const repeatTol = 1e-9

// simPaperSpec is the paper's problem (ecut 80, alat 20, 128 bands, 8 task
// groups) in cost mode, for all five engines at the full-node point 8×8 and
// the two-way hyper-threaded point 16×8.
func simPaperSpec() *closedSpec {
	s := &closedSpec{name: "sim-paper", setups: 5, popRanks: 8}
	for _, r := range []int{8, 16} {
		for _, e := range engineList {
			s.configs = append(s.configs, fftx.Config{
				Ecut: 80, Alat: 20, NB: 128, Ranks: r, NTG: 8, Engine: e, Mode: fftx.ModeCost})
		}
	}
	type digest struct{ runtime, instr, bytes float64 }
	first := map[int]digest{}
	instrAt := map[int]float64{}
	bytesAt := map[string]float64{}
	s.check = func(idx int, cfg fftx.Config, res *fftx.Result, bytes float64) error {
		if !(res.Runtime > 0) || math.IsInf(res.Runtime, 0) {
			return fmt.Errorf("virtual runtime %g", res.Runtime)
		}
		// Summed in sorted order, so the total does not depend on the order
		// in which an engine recorded its intervals.
		xs := make([]float64, len(res.Trace.Intervals))
		for i, iv := range res.Trace.Intervals {
			xs[i] = iv.Instr
		}
		sort.Float64s(xs)
		var instr float64
		for _, x := range xs {
			instr += x
		}
		d := digest{res.Runtime, instr, bytes}
		if prev, ok := first[idx]; ok {
			if d.instr != prev.instr || d.bytes != prev.bytes ||
				!(math.Abs(d.runtime-prev.runtime) <= repeatTol*prev.runtime) {
				return fmt.Errorf("repeat differs: %+v, first run %+v", d, prev)
			}
			if d.runtime != prev.runtime {
				s.inexact++
				if len(s.inexactNotes) < 4 {
					s.inexactNotes = append(s.inexactNotes, fmt.Sprintf(
						"%v %dx%d: virtual runtime %.17g, first run %.17g",
						cfg.Engine, cfg.Ranks, cfg.NTG, d.runtime, prev.runtime))
				}
			}
		} else {
			first[idx] = d
		}
		// Instruction totals are engine-invariant at one (R, NTG) point.
		if prev, ok := instrAt[cfg.Ranks]; ok && prev != instr {
			return fmt.Errorf("instructions %g, other engines at R=%d: %g", instr, cfg.Ranks, prev)
		}
		instrAt[cfg.Ranks] = instr
		// MPI bytes are equal among engines that keep the task-group MPI
		// layer (original, task-steps) and among those that replace it by
		// threads (the rest).
		family := "threads"
		if cfg.Engine == fftx.EngineOriginal || cfg.Engine == fftx.EngineTaskSteps {
			family = "task-groups"
		}
		key := fmt.Sprintf("%d/%s", cfg.Ranks, family)
		if prev, ok := bytesAt[key]; ok && prev != bytes {
			return fmt.Errorf("MPI bytes %g, other %s engines at R=%d: %g", bytes, family, cfg.Ranks, prev)
		}
		bytesAt[key] = bytes
		return nil
	}
	s.replay = func(o *outcome) { replayGeometry(o, 80, 20, 8) }
	return s
}

// miniappEcut and friends size the real-numerics workload: a grid small
// enough that one run takes a fraction of a second on one core.
const (
	miniappEcut  = 40
	miniappAlat  = 10
	miniappNB    = 16
	miniappRanks = 2
	miniappNTG   = 4
	bandTol      = 1e-9 // max |band - reference| accepted
)

// realMiniappSpec runs real numerics, cycling original, task-iter and
// dataflow, and compares every band with fftx.Reference.
func realMiniappSpec() *closedSpec {
	s := &closedSpec{name: "real-miniapp", setups: 9, popRanks: miniappRanks}
	for _, e := range []fftx.Engine{fftx.EngineOriginal, fftx.EngineTaskIter, fftx.EngineDataflow} {
		s.configs = append(s.configs, fftx.Config{
			Ecut: miniappEcut, Alat: miniappAlat, NB: miniappNB,
			Ranks: miniappRanks, NTG: miniappNTG, Engine: e, Mode: fftx.ModeReal})
	}
	var ref [][]complex128
	s.prepare = func() { ref = fftx.Reference(s.configs[0]) }
	s.check = func(_ int, _ fftx.Config, res *fftx.Result, _ float64) error {
		if len(res.Bands) != len(ref) {
			return fmt.Errorf("%d bands, reference has %d", len(res.Bands), len(ref))
		}
		for b := range ref {
			if len(res.Bands[b]) != len(ref[b]) {
				return fmt.Errorf("band %d has %d coefficients, reference %d", b, len(res.Bands[b]), len(ref[b]))
			}
			for i, v := range ref[b] {
				if d := cmplx.Abs(res.Bands[b][i] - v); !(d <= bandTol) {
					return fmt.Errorf("band %d coefficient %d off by %g", b, i, d)
				}
			}
		}
		return nil
	}
	s.replay = replayMiniappKernels
	return s
}

func runSimPaper(opts options) (*outcome, error)    { return runClosed(simPaperSpec(), opts) }
func runRealMiniapp(opts options) (*outcome, error) { return runClosed(realMiniappSpec(), opts) }

// counters are the simulator's cumulative activity counts.
type counters struct {
	steps, jobs, mpiCalls, mpiBytes, tasks, stalls float64
}

func readCounters() counters {
	s := metrics.Default().Gather()
	return counters{
		steps:    s.Sum("fftx_vtime_steps_total"),
		jobs:     s.Sum("fftx_vtime_jobs_completed_total"),
		mpiCalls: s.Sum("fftx_mpi_calls_total"),
		mpiBytes: s.Sum("fftx_mpi_bytes_total"),
		tasks:    s.Sum("fftx_ompss_tasks_created_total"),
		stalls:   s.Sum("fftx_ompss_taskwait_stalls_total"),
	}
}

func (c counters) minus(b counters) counters {
	return counters{c.steps - b.steps, c.jobs - b.jobs, c.mpiCalls - b.mpiCalls,
		c.mpiBytes - b.mpiBytes, c.tasks - b.tasks, c.stalls - b.stalls}
}

func (c *counters) add(b counters) {
	c.steps += b.steps
	c.jobs += b.jobs
	c.mpiCalls += b.mpiCalls
	c.mpiBytes += b.mpiBytes
	c.tasks += b.tasks
	c.stalls += b.stalls
}

// loopResult is what one measured phase of a closed loop observed.
type loopResult struct {
	ops       int
	elapsed   time.Duration
	runMillis map[int][]float64 // per config index
	virtual   map[int]float64
	// First-round totals, which repeat exactly for a given seed.
	round      counters
	roundOps   int
	roundRunNs float64
	intervals  float64
	allocBytes uint64
	gcCycles   uint32
}

// opP50 is the closed-loop op_p50_ms: the geometric mean over the config
// list of each config's median run time. A plain median over a mix of
// configs whose run times differ several-fold would jump between configs.
func (l *loopResult) opP50() float64 {
	var meds []float64
	for _, xs := range l.runMillis {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// runPhase runs whole rounds of the (seed-ordered) config list until
// seconds have passed; another round starts only if half of the last
// round's time still fits.
func runPhase(s *closedSpec, order []int, opts options, seconds float64, tr *tracer,
	pops map[fftx.Engine]pop.Factors, o *outcome) loopResult {
	l := loopResult{runMillis: map[int][]float64{}, virtual: map[int]float64{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		for _, idx := range order {
			cfg := s.configs[idx]
			cfg.Seed = int(opts.seed)
			op := int64(l.ops)
			before := readCounters()
			t0 := time.Now()
			root := tr.reserve("op", op, -1, t0)
			res, err := fftx.Run(cfg)
			t1 := time.Now()
			tr.at("fftx.Run", op, root, t0, t1)
			delta := readCounters().minus(before)
			o.attempted++
			l.ops++
			if err != nil {
				o.fail("%s %v %dx%d: %v", s.name, cfg.Engine, cfg.Ranks, cfg.NTG, err)
				tr.finish(root, time.Now())
				continue
			}
			if err := s.check(idx, cfg, res, delta.mpiBytes); err != nil {
				o.fail("%s %v %dx%d: %v", s.name, cfg.Engine, cfg.Ranks, cfg.NTG, err)
			}
			t2 := time.Now()
			tr.at("check", op, root, t1, t2)
			if tr != nil && pops != nil && round == 0 && cfg.Ranks == s.popRanks {
				pops[cfg.Engine] = pop.Analyze(res.Trace)
				tr.at("pop.Analyze", op, root, t2, time.Now())
			}
			tr.finish(root, time.Now())
			l.runMillis[idx] = append(l.runMillis[idx], ms(t1.Sub(t0)))
			l.virtual[idx] = res.Runtime
			if round == 0 {
				l.round.add(delta)
				l.roundOps++
				l.roundRunNs += float64(t1.Sub(t0))
				l.intervals += float64(len(res.Trace.Intervals))
			}
		}
		roundDur := time.Since(roundStart)
		if time.Since(start)+roundDur/2 > time.Duration(seconds*float64(time.Second)) {
			break
		}
	}
	l.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	l.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	l.gcCycles = ms1.NumGC - ms0.NumGC
	return l
}

// runClosed runs a closed-loop workload: set-up in fresh processes, then
// the measured loop (untraced), or an untraced and a traced half whose
// difference is the tracing overhead.
func runClosed(s *closedSpec, opts options) (*outcome, error) {
	o := &outcome{}
	setup, err := timeSetups(s.name, s.setups, opts.seed)
	if err != nil {
		return nil, err
	}
	if s.prepare != nil {
		s.prepare()
	}
	order := rand.New(rand.NewSource(opts.seed)).Perm(len(s.configs))

	if !opts.trace {
		l := runPhase(s, order, opts, opts.seconds, nil, nil, o)
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		reportClosed(o, &l, setup, rss)
		reportInexact(s, o)
		return o, nil
	}

	plain := runPhase(s, order, opts, opts.seconds/2, nil, nil, o)
	tr := newTracer()
	pops := map[fftx.Engine]pop.Factors{}
	traced := runPhase(s, order, opts, opts.seconds/2, tr, pops, o)
	o.layer("bench.trace_overhead_pct", 100*(traced.opP50()/plain.opP50()-1), "%")
	reportInexact(s, o)

	n := float64(traced.roundOps)
	o.layer("vtime.steps", traced.round.steps/n, "count")
	o.layer("vtime.jobs", traced.round.jobs/n, "count")
	o.layer("vtime.ns_per_step", traced.roundRunNs/traced.round.steps, "ns")
	o.layer("trace.intervals", traced.intervals/n, "count")
	o.layer("mpi.calls", traced.round.mpiCalls/n, "count")
	o.layer("mpi.bytes", traced.round.mpiBytes/n, "B")
	o.layer("ompss.tasks", traced.round.tasks/n, "count")
	o.layer("ompss.taskwait_stalls", traced.round.stalls/n, "count")
	ops := float64(traced.ops)
	o.layer("go.alloc_mb_per_op", float64(traced.allocBytes)/ops/(1<<20), "MiB")
	o.layer("go.gc_cycles_per_op", float64(traced.gcCycles)/ops, "count")
	for idx, cfg := range s.configs {
		all := append(append([]float64(nil), plain.runMillis[idx]...), traced.runMillis[idx]...)
		o.layer(fmt.Sprintf("fftx.run_ms.%v.%d", cfg.Engine, cfg.Ranks), median(all), "ms")
	}
	for e, f := range pops {
		o.layer("pop.parallel_eff."+e.String(), f.ParallelEff, "1")
		o.layer("pop.load_balance."+e.String(), f.LoadBalance, "1")
		o.layer("pop.comm_eff."+e.String(), f.CommEff, "1")
		o.layer("pop.avg_ipc."+e.String(), f.AvgIPC, "1")
	}
	self := tr.selfMillis()
	o.layer("self_ms.fftx_run", self["fftx.Run"]/ops, "ms")
	o.layer("self_ms.check", self["check"]/ops, "ms")
	o.layer("self_ms.op", self["op"]/ops, "ms")
	s.replay(o)
	if err := tr.write(dumpPath(opts, s.name)); err != nil {
		return nil, err
	}
	return o, nil
}

func reportClosed(o *outcome, l *loopResult, setup, rss float64) {
	var all, virt []float64
	for idx, xs := range l.runMillis {
		all = append(all, xs...)
		virt = append(virt, l.virtual[idx])
	}
	o.e2e("setup_s", setup, "s")
	// Completed runs per second; runs whose output check failed are
	// counted in failed and error_ratio instead of being dropped here, so
	// that a flaky check does not add noise to the throughput.
	o.e2e("ops_per_s", float64(l.ops)/l.elapsed.Seconds(), "1/s")
	o.e2e("op_p50_ms", l.opP50(), "ms")
	// The plain median and p90 over all runs, reported where the sample
	// supports p90 (ten or more runs beyond it).
	o.e2e("op_median_all_ms", median(all), "ms")
	if len(all) >= 100 {
		o.e2e("op_p90_ms", quantile(all, 0.9), "ms")
	}
	o.e2e("error_ratio", float64(o.failed)/float64(o.attempted), "1")
	o.e2e("peak_rss_mb", rss, "MiB")
	o.e2e("virtual_s", geomean(virt), "virtual_s")
	o.e2e("runs", float64(l.ops), "count")
}

// reportInexact reports the repeats that were not bit-identical to their
// config's first run: a determinism defect of the simulator, shown on every
// run but not counted as a failure while within repeatTol.
func reportInexact(s *closedSpec, o *outcome) {
	o.notes = append(o.notes, s.inexactNotes...)
	o.e2e("inexact_repeats", float64(s.inexact), "count")
	o.layer("vtime.inexact_repeats", float64(s.inexact), "count")
}

// timeSetups times n cold set-ups, each in a fresh process, and returns
// the median in seconds.
func timeSetups(workload string, n int, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locate own binary: %w", err)
	}
	var secs []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		out, err := exec.Command(self, "-setup-child", workload, "-seed", strconv.FormatInt(seed, 10)).Output()
		d := time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("set-up run %d: %w (%s)", i, err, out)
		}
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// setupChild is the body of one set-up process: the first, cold run of the
// workload's first config in canonical order. It prints nothing on
// success; any failure exits non-zero.
func setupChild(workload string, seed int64) int {
	var s *closedSpec
	switch workload {
	case "sim-paper":
		s = simPaperSpec()
	case "real-miniapp":
		s = realMiniappSpec()
	default:
		fmt.Fprintf(os.Stderr, "perfbench: no set-up child for %q\n", workload)
		return 2
	}
	cfg := s.configs[0]
	cfg.Seed = int(seed)
	if _, err := fftx.Run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up run:", err)
		return 1
	}
	return 0
}

// replayGeometry times the problem geometry the simulator builds per run.
func replayGeometry(o *outcome, ecut, alat float64, ranks int) {
	d := timeMedian(5, 200*time.Millisecond, func() {
		pw.NewLayout(pw.NewSphere(ecut, alat), ranks)
	})
	o.layer("pw.setup_ms", ms(d), "ms")
}

// replayMiniappKernels times the batched kernels real-miniapp's stage
// bodies run, at position 0's stick and plane counts, and the par fan-out
// at the plane count.
func replayMiniappKernels(o *outcome) {
	replayGeometry(o, miniappEcut, miniappAlat, miniappRanks)
	s := pw.NewSphere(miniappEcut, miniappAlat)
	l := pw.NewLayout(s, miniappRanks)
	g := s.Grid
	sticks, planes := l.NSticksOf(0), l.NPlanesOf(0)
	planZ := fft.DefaultCache.Get(g.Nz)
	plan2D := fft.DefaultCache.Get2D(g.Nx, g.Ny)

	rng := rand.New(rand.NewSource(1))
	zbuf := randomComplex(rng, sticks*g.Nz)
	dz := timeMedian(20, 200*time.Millisecond, func() { planZ.TransformBatch(zbuf, sticks, fft.Forward) })
	o.layer("fft.z_batch_us", float64(dz)/1e3, "us")
	o.layer("fft.z_ns_per_nlog2n", float64(dz)/float64(sticks)/nlog2n(g.Nz), "ns")

	nxy := g.Nx * g.Ny
	xybuf := randomComplex(rng, planes*nxy)
	dxy := timeMedian(20, 200*time.Millisecond, func() {
		par.ParallelFor(planes, 1, func(lo, hi int) {
			for z := lo; z < hi; z++ {
				plan2D.Transform(xybuf[z*nxy:(z+1)*nxy], fft.Forward)
			}
		})
	})
	o.layer("fft.xy_batch_us", float64(dxy)/1e3, "us")
	o.layer("fft.xy_ns_per_nlog2n", float64(dxy)/float64(planes)/nlog2n(nxy), "ns")
	replayFanout(o, planes)
}

// replayFanout times par.ParallelFor's dispatch at n single-item chunks
// with a trivial body.
func replayFanout(o *outcome, n int) {
	sink := make([]int, n)
	d := timeMedian(200, 100*time.Millisecond, func() {
		par.ParallelFor(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sink[i]++
			}
		})
	})
	o.layer("par.fanout_us", float64(d)/1e3, "us")
}

func nlog2n(n int) float64 { return float64(n) * math.Log2(float64(n)) }

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}
