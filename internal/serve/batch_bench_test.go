package serve

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// execRound measures the exec layer the way the dispatcher drives it:
// "batched" hands the worker one group of rows same-shape tasks (one plan
// lookup, one host-parallel fan-out), "unbatched" hands it rows singleton
// groups — what the same offered load costs with coalescing disabled. The
// returned func runs that load iters times and reports the elapsed time.
func execRound(s *Server, dims []int, rows int, batched bool) func(iters int) time.Duration {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := randomData(1, n)
	return func(iters int) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			tasks := make([]*task, rows)
			for j := range tasks {
				req := &Request{Op: OpTransform, Dims: dims, Sign: -1, Batch: 1,
					Data: append([]float64(nil), data...)}
				tasks[j] = newTask(req)
				mQueueDepth.Add(1) // runBatch decrements per task
			}
			if batched {
				s.runBatch(&group{key: tasks[0].key, tasks: tasks})
			} else {
				for _, t := range tasks {
					s.runBatch(&group{key: t.key, tasks: []*task{t}})
				}
			}
			for _, t := range tasks {
				<-t.done
			}
		}
		return time.Since(start)
	}
}

// TestBatchedThroughputGain is the benchmark-backed acceptance check: a
// coalesced same-shape batch must deliver at least 1.3× the throughput of
// the same requests dispatched one by one. On multi-core hosts the win is
// the shared host-parallel fan-out; the single-core floor is the amortized
// per-batch dispatch overhead, measured on a small shape where it shows.
//
// The fan-out gain needs idle cores, and under `go test ./...` the test
// binaries and links of other packages run beside this one. So the test
// first waits (boundedly) for the host to go quiet, then alternates the two
// arms in short slices and takes the median of the per-round ratios: load
// that arrives mid-run slows both arms of the rounds it overlaps instead of
// whichever arm happened to run then.
func TestBatchedThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	s := New(Config{Workers: 1})
	dims := []int{16, 16, 16}
	rows := 16
	if runtime.GOMAXPROCS(0) < 2 {
		// One core: no parallel speedup exists, so measure the dispatch
		// amortization where kernel time does not drown it.
		dims = []int{16}
		rows = 128
	}
	waitForQuietHost(t, 15*time.Second)
	un := execRound(s, dims, rows, false)
	ba := execRound(s, dims, rows, true)

	// Warm the plan cache, then size a slice to about sliceTime of
	// unbatched work.
	const rounds, sliceTime = 21, 80 * time.Millisecond
	ba(1)
	iters := 1
	for d := un(iters); d < sliceTime; d = un(iters) {
		iters = max(2*iters, int(int64(iters)*int64(sliceTime)/max(int64(d), 1)))
	}

	ratios := make([]float64, rounds)
	var unTotal, baTotal time.Duration
	for r := range ratios {
		var du, db time.Duration
		if r%2 == 0 {
			du, db = un(iters), ba(iters)
		} else {
			db, du = ba(iters), un(iters)
		}
		unTotal += du
		baTotal += db
		ratios[r] = float64(du) / float64(db)
	}
	t.Logf("per-round gains: %.2f", ratios)
	sort.Float64s(ratios)
	ratio := ratios[rounds/2]
	perOp := func(d time.Duration) time.Duration { return d / time.Duration(rounds*iters) }
	t.Logf("dims %v rows %d, %d rounds of %d: unbatched %v/op, batched %v/op, median gain %.2fx (range %.2f–%.2fx)",
		dims, rows, rounds, iters, perOp(unTotal), perOp(baTotal), ratio, ratios[0], ratios[rounds-1])
	if ratio < 1.3 {
		t.Errorf("batched throughput gain %.2fx, want >= 1.3x", ratio)
	}
}

// waitForQuietHost polls the host-wide CPU accounting in /proc/stat until a
// quarter-second window shows less than a quarter of a core busy, or limit
// passes. Where /proc/stat is unreadable it returns at once.
func waitForQuietHost(t *testing.T, limit time.Duration) {
	prevBusy, prevTotal, ok := hostCPUTicks()
	if !ok {
		return
	}
	cpus := float64(runtime.NumCPU())
	start := time.Now()
	for time.Since(start) < limit {
		time.Sleep(250 * time.Millisecond)
		busy, total, ok := hostCPUTicks()
		if !ok {
			return
		}
		if total > prevTotal && cpus*float64(busy-prevBusy)/float64(total-prevTotal) < 0.25 {
			t.Logf("host quiet after %v", time.Since(start).Round(time.Millisecond))
			return
		}
		prevBusy, prevTotal = busy, total
	}
	t.Logf("host still busy after %v; measuring anyway", limit)
}

// hostCPUTicks reads the aggregate "cpu" line of /proc/stat and returns the
// non-idle and total ticks (steal counts as busy: those cycles are not ours).
func hostCPUTicks() (busy, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var idle uint64
	for i, field := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 3 || i == 4 {
			idle += v
		}
	}
	return total - idle, total, true
}
