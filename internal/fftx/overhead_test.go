package fftx

import (
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
)

// overheadConfig is the quick-suite-sized workload used to measure the cost
// of the always-on telemetry: small enough for CI, large enough that a run
// passes through every instrumented layer (vtime, mpi, ompss, fftx).
func overheadConfig() Config {
	return Config{
		Ecut: 20, Alat: 12, NB: 16, Ranks: 4, NTG: 2,
		Engine: EngineTaskIter, Mode: ModeCost,
	}
}

// minRunSeconds runs the workload n times and returns the fastest host-side
// wall time. Minimum-of-N discards scheduler noise and GC pauses, which dwarf
// the per-event cost being measured.
func minRunSeconds(b *testing.B, cfg Config, n int) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		timer := testing.Benchmark(func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		sec := timer.T.Seconds() / float64(timer.N)
		if i == 0 || sec < best {
			best = sec
		}
	}
	return best
}

// BenchmarkRunTelemetryOn and BenchmarkRunTelemetryOff are the benchmark
// pair behind `make overhead-smoke`:
//
//	go test ./internal/fftx -run xx -bench 'RunTelemetry' -benchtime 5x
//
// Compare ns/op; the On/Off ratio is the instrumentation overhead.
func BenchmarkRunTelemetryOn(b *testing.B) {
	cfg := overheadConfig()
	metrics.SetEnabled(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTelemetryOff(b *testing.B) {
	cfg := overheadConfig()
	metrics.SetEnabled(false)
	defer metrics.SetEnabled(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTelemetryOverheadSmoke compares min-of-N wall time with metrics
// enabled against disabled. The design target is <5%; the assertion uses a
// deadman threshold of 50% so a loaded CI machine does not flake, while a
// pathological regression (locking on the hot path, per-event allocation)
// still fails. The measured ratio is logged for the CI job to surface.
//
// The two modes alternate in short time-boxed samples, so a drift in host
// speed hits both alike, and the whole comparison stays around a second and
// a half: it shares the host with the other packages of `go test ./...`,
// some of which time their own work.
func TestTelemetryOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	cfg := overheadConfig()
	const rounds, sampleTime = 7, 100 * time.Millisecond
	// sample runs the workload for about sampleTime and returns the mean
	// host-side seconds per run.
	sample := func(enabled bool) float64 {
		metrics.SetEnabled(enabled)
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < sampleTime {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			n++
		}
		return time.Since(start).Seconds() / float64(n)
	}
	// A warm-up of each mode first so neither side pays the one-time costs
	// (page faults, lazy family registration).
	for _, enabled := range []bool{false, true} {
		metrics.SetEnabled(enabled)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	off, on := math.Inf(1), math.Inf(1)
	for i := 0; i < rounds; i++ {
		first := i%2 == 0
		for _, enabled := range []bool{first, !first} {
			if sec := sample(enabled); enabled {
				on = math.Min(on, sec)
			} else {
				off = math.Min(off, sec)
			}
		}
	}
	metrics.SetEnabled(true)
	ratio := on / off
	t.Logf("telemetry overhead: on %.4fms, off %.4fms, ratio %.3f (target <1.05, deadman <1.50)",
		on*1e3, off*1e3, ratio)
	if ratio > 1.5 {
		t.Fatalf("telemetry overhead ratio %.3f exceeds deadman threshold 1.5", ratio)
	}
}
