package knl

import (
	"math"
	"sort"
	"testing"

	"repro/internal/vtime"
)

// mixedJobs returns one job per lane with the classes cycling mem, stream,
// vector, so hyper-threaded cores pair classes whose issue shares (1/1.42,
// 1/1.78, ...) are not exact binary fractions.
func mixedJobs(lanes int) []*vtime.ActiveJob {
	jobs := make([]*vtime.ActiveJob, lanes)
	for i := range jobs {
		jobs[i] = &vtime.ActiveJob{Job: vtime.Job{Work: 1, Class: i % int(numClasses), Lane: i}}
	}
	return jobs
}

func rateBits(jobs []*vtime.ActiveJob) []uint64 {
	bits := make([]uint64, len(jobs))
	for i, j := range jobs {
		bits[i] = math.Float64bits(j.Rate)
	}
	return bits
}

// TestRatesBitIdenticalAcrossCalls pins the determinism of the contention
// model: the node-shared load is summed in core order, so the same job set
// gets the same rates to the last bit on every call. Summing over a map
// made hyper-threaded rates drift by a few ULPs between calls.
func TestRatesBitIdenticalAcrossCalls(t *testing.T) {
	n := NewNode(DefaultParams(), 128)
	jobs := mixedJobs(128)
	n.Rates(jobs)
	want := rateBits(jobs)
	for call := 0; call < 200; call++ {
		for _, j := range jobs {
			j.Rate = 0
		}
		n.Rates(jobs)
		for i, b := range rateBits(jobs) {
			if b != want[i] {
				t.Fatalf("call %d: lane %d rate %v, first call %v", call, i, jobs[i].Rate, math.Float64frombits(want[i]))
			}
		}
	}
}

// refRates is the contention model written the direct way, one map per
// aggregation level, with the load summed over the cores in ascending
// order. Node.Rates must agree with it bit for bit.
func refRates(n *Node, jobs []*vtime.ActiveJob) {
	share := func(sum map[int]float64, key int) float64 {
		if tot := sum[key]; tot > 1 {
			return 1 / tot
		}
		return 1
	}
	issue, bw, tile := map[int]float64{}, map[int]float64{}, map[int]float64{}
	for _, j := range jobs {
		issue[n.core[j.Lane]] += n.P.IssueDemand[j.Class]
	}
	for _, j := range jobs {
		c := n.core[j.Lane]
		bw[c] += n.P.BWDemand[j.Class] * share(issue, c)
		tile[c/2] += n.P.TileDemand[j.Class] * share(issue, c)
	}
	cores := make([]int, 0, len(bw))
	for c := range bw {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	var load float64
	for _, c := range cores {
		load += math.Min(bw[c], 1)
	}
	s := n.P.Slowdown(load)
	for _, j := range jobs {
		c := n.core[j.Lane]
		ipc := n.P.BaseIPC[j.Class] * share(issue, c) * share(tile, c/2) * math.Pow(s, n.P.Sens[j.Class])
		j.Rate = n.P.Freq * ipc
	}
}

func TestRatesMatchReference(t *testing.T) {
	tiled := DefaultParams()
	tiled.TileDemand = [numClasses]float64{0.3, 0.5, 0.6}
	for _, p := range []Params{DefaultParams(), tiled, XeonParams()} {
		for _, lanes := range []int{1, 8, 64, 68, 100, 128, 4 * p.Cores} {
			if lanes > 4*p.Cores {
				continue
			}
			n := NewNode(p, lanes)
			// Every other lane busy, in reverse order, to exercise partial
			// cores and a job order unlike the lane order.
			var got, want []*vtime.ActiveJob
			for l := lanes - 1; l >= 0; l -= 2 {
				got = append(got, &vtime.ActiveJob{Job: vtime.Job{Work: 1, Class: (l / 3) % int(numClasses), Lane: l}})
				want = append(want, &vtime.ActiveJob{Job: got[len(got)-1].Job})
			}
			n.Rates(got)
			refRates(n, want)
			for i := range got {
				if got[i].Rate != want[i].Rate {
					t.Fatalf("cores %d lanes %d job %d: rate %v, reference %v", p.Cores, lanes, i, got[i].Rate, want[i].Rate)
				}
			}
		}
	}
}

// TestRatesZeroAlloc pins the steady state of the contention model: the
// engine calls Rates on every step that changed the job set, so it must
// not allocate.
func TestRatesZeroAlloc(t *testing.T) {
	p := DefaultParams()
	for _, lanes := range []int{64, 128} {
		n := NewNode(p, lanes)
		jobs := mixedJobs(lanes)
		if a := testing.AllocsPerRun(50, func() { n.Rates(jobs) }); a != 0 {
			t.Errorf("Node.Rates with %d jobs: %v allocs per call", lanes, a)
		}
	}
	for _, nodes := range []int{1, 2} {
		c := NewCluster(p, DefaultNet(), nodes, 128)
		jobs := mixedJobs(128)
		if a := testing.AllocsPerRun(50, func() { c.Rates(jobs) }); a != 0 {
			t.Errorf("Cluster.Rates on %d nodes: %v allocs per call", nodes, a)
		}
	}
}
