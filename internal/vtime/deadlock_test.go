package vtime

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestProcPanicBecomesError: a panic inside a simulated process must not
// kill the test binary or hang the engine; Run converts it into an error
// naming the process.
func TestProcPanicBecomesError(t *testing.T) {
	e := NewEngine(nil)
	e.Spawn("victim", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	e.Spawn("bystander", func(p *Proc) { p.Sleep(0.5) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want panic error")
	}
	for _, want := range []string{"victim", "panicked", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestBlockOnDescriptionInDump: the closure handed to BlockOn supplies the
// waits-on line of the structured deadlock dump, evaluated lazily at dump
// time.
func TestBlockOnDescriptionInDump(t *testing.T) {
	e := NewEngine(nil)
	e.Spawn("estragon", func(p *Proc) {
		p.Sleep(2)
		p.BlockOn(func() string { return "waiting for godot" })
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if de.At != 2 {
		t.Errorf("deadlock at t=%g, want 2", de.At)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked %d, want 1", len(de.Blocked))
	}
	b := de.Blocked[0]
	if b.Name != "estragon" || b.Since != 2 || b.WaitingOn != "waiting for godot" {
		t.Errorf("dump = %+v, want estragon since t=2 waiting for godot", b)
	}
}

// TestBareBlockStillDiagnosable: Block without a description falls back to
// a placeholder rather than an empty waits-on line.
func TestBareBlockStillDiagnosable(t *testing.T) {
	e := NewEngine(nil)
	e.Spawn("mute", func(p *Proc) { p.Block() })
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if !strings.Contains(de.Blocked[0].WaitingOn, "unknown") {
		t.Errorf("WaitingOn = %q, want unknown placeholder", de.Blocked[0].WaitingOn)
	}
}

// machineFunc adapts a function to the Machine interface.
type machineFunc func(jobs []*ActiveJob)

func (f machineFunc) Rates(jobs []*ActiveJob) { f(jobs) }

// TestInvalidRateAfterCompletionIsError: a machine that sets rate 0 once
// the job count drops below its peak (after a job completes) must surface
// as a structured error from Run naming the surviving job's lane and class,
// not crash the host.
func TestInvalidRateAfterCompletionIsError(t *testing.T) {
	peak := 0
	e := NewEngine(machineFunc(func(jobs []*ActiveJob) {
		peak = max(peak, len(jobs))
		for _, j := range jobs {
			j.Rate = 1
			if len(jobs) < peak {
				j.Rate = 0
			}
		}
	}))
	e.Spawn("short", func(p *Proc) { p.Compute(Job{Work: 1, Class: 2, Lane: 0}) })
	e.Spawn("long", func(p *Proc) { p.Compute(Job{Work: 5, Class: 3, Lane: 7}) })
	err := e.Run()
	var re *RateError
	if !errors.As(err, &re) {
		t.Fatalf("Run() = %v, want *RateError", err)
	}
	if re.Lane != 7 || re.Class != 3 || re.Rate != 0 || re.At != 1 {
		t.Fatalf("RateError %+v, want lane 7 class 3 rate 0 at t=1", *re)
	}
	for _, want := range []string{"invalid rate", "lane 7", "class 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestInvalidRateAtStartIsError: the same check covers a rate set when a
// job starts, and NaN as well as zero.
func TestInvalidRateAtStartIsError(t *testing.T) {
	e := NewEngine(machineFunc(func(jobs []*ActiveJob) {
		for _, j := range jobs {
			j.Rate = math.NaN()
		}
	}))
	e.Spawn("lone", func(p *Proc) { p.Compute(Job{Work: 1, Class: 1, Lane: 4}) })
	var re *RateError
	if err := e.Run(); !errors.As(err, &re) || re.Lane != 4 || re.Class != 1 {
		t.Fatalf("Run() = %v, want *RateError for lane 4 class 1", err)
	}
}
