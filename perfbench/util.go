package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timeMedian calls fn until it has run at least minReps times and for at
// least budget, and returns the median duration of one call.
func timeMedian(minReps int, budget time.Duration, fn func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < budget {
		t := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds))
}

// mallocsPer returns the heap allocations of one call of fn, averaged over
// reps calls.
func mallocsPer(reps int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reps)
}

// peakRSSMiB reads the peak resident set (VmHWM) of a process from /proc;
// pid 0 means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the index of the enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at records a finished span from start to end and returns its index.
func (t *tracer) at(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, op, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// reserve records a span whose end is filled in later by finish, so that
// children recorded meanwhile can name it as their parent.
func (t *tracer) reserve(name string, op int64, parent int, start time.Time) int {
	return t.at(name, op, parent, start, start)
}

func (t *tracer) finish(idx int, end time.Time) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// selfMillis returns, per span name, the summed self time in milliseconds:
// each span's duration minus the time its children cover. Children of one
// span never overlap in this benchmark (each operation's calls are
// sequential), so their durations add.
func (t *tracer) selfMillis() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

// provenance describes where and on what a result was measured.
func provenance(workload string, opts options) map[string]any {
	return map[string]any{
		"workload":      workload,
		"git_sha":       gitSHA(),
		"source_sha256": sourceDigest(),
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"seed":          opts.seed,
		"run_seconds":   opts.seconds,
		"trace":         opts.trace,
		"date":          time.Now().UTC().Format(time.RFC3339),
	}
}

// gitSHA reads the commit of HEAD from the checkout's .git directory, or
// returns "unknown" where there is none (the benchmark reads no files
// outside its checkout, so it does not ask git to search parent
// directories).
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under cmd/ and internal/,
// which identifies the measured program where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, path := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
