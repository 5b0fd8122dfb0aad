// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads, checks every output, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) named in
// BENCHMARK.json. See README.md in this directory for the metrics, the
// workloads and why each was chosen.
//
// Run it through run.sh from the repository root, which builds fftxd and
// this program from the checkout's sources:
//
//	bash perfbench/run.sh --workload sim-paper --seed 3 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it are a
// readable report with every metric the workload measures (including
// those outside BENCHMARK.json) and a provenance record.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what a workload run returns: the operation counts, the
// failures found by the output checks, and its metrics. report holds every
// end-to-end metric the workload measures; layers the per-layer metrics of
// a traced run.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	notes     []string // findings that do not fail the run
	report    []metric
	layers    []metric
}

// fail records one failed operation with the reason, keeping the first few
// reasons for the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) e2e(name string, v float64, unit string) {
	o.report = append(o.report, metric{name, v, unit})
}

func (o *outcome) layer(name string, v float64, unit string) {
	o.layers = append(o.layers, metric{name, v, unit})
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	fftxd   string // path of the fftxd binary (serve-mix)
	out     string // directory for span dumps
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*outcome, error){
	"serve-mix":    runServeMix,
	"sim-paper":    runSimPaper,
	"real-miniapp": runRealMiniapp,
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload: serve-mix | sim-paper | real-miniapp")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "measured run length in seconds")
		traceOn  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		fftxd    = flag.String("fftxd", "", "path of the fftxd binary")
		out      = flag.String("out", ".bench_build", "directory for the span dump")
		child    = flag.String("setup-child", "", "internal: time one cold set-up of this workload and exit")
	)
	flag.Parse()
	if *child != "" {
		return setupChild(*child, *seed)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload serve-mix|sim-paper|real-miniapp, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traceOn == 1, fftxd: *fftxd, out: *out}
	prov := provenance(*workload, opts)
	start := time.Now()
	o, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	want := spec.EndToEnd
	got := o.report
	if opts.trace {
		want, got = spec.PerLayer, o.layers
	}
	metrics, err := selectMetrics(want, got, opts.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v wall=%.1fs attempted=%d failed=%d\n",
		*workload, opts.seed, opts.seconds, opts.trace, time.Since(start).Seconds(), o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Println("  FAILED:", f)
	}
	for _, n := range o.notes {
		fmt.Println("  NOT BIT-EXACT:", n)
	}
	printMetrics("end-to-end", o.report)
	if opts.trace {
		printMetrics("per-layer", o.layers)
	}
	pj, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(pj))

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, map[string]jm{}}
	for _, m := range metrics {
		final.Metrics[m.Name] = jm{m.Value, m.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// spec is the part of BENCHMARK.json the program reads: the metric names
// and units it must print.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec (run from the repository root): %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("benchmark spec lists no metrics")
	}
	return &s, nil
}

// selectMetrics returns the metrics the spec asks for, in spec order. An
// end-to-end metric the workload did not measure is an error; a per-layer
// metric of a layer the workload does not exercise reads 0.
func selectMetrics(want []specMetric, got []metric, zeroMissing bool) ([]metric, error) {
	byName := map[string]metric{}
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(want))
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok && zeroMissing:
			m = metric{w.Name, 0, w.Unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		case m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, spec says %s", w.Name, m.Unit, w.Unit)
		}
		out = append(out, m)
	}
	return out, nil
}

func printMetrics(title string, ms []metric) {
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	fmt.Printf("%s metrics:\n", title)
	for _, m := range sorted {
		fmt.Printf("  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

// dumpPath names the file a run's spans are written to.
func dumpPath(opts options, workload string) string {
	return filepath.Join(opts.out, fmt.Sprintf("perfbench-spans-%s-seed%d.jsonl", workload, opts.seed))
}
