package sim

import (
	"strings"
	"testing"
)

// advSnap is the environment state TryAdvance may change.
type advSnap struct {
	now                      Time
	steps, switches, inlined uint64
}

func snap(e *Env) advSnap { return advSnap{e.Now(), e.Steps(), e.Switches(), e.Inlined()} }

// TestTryAdvance has one row per refusal condition plus the accepted
// cases.  Each row's process sleeps to t=5, runs prep, then asks to
// advance by 10.  An accepted advance moves the clock and Inlined only;
// a refused one changes nothing.
func TestTryAdvance(t *testing.T) {
	const start, d = 5, 10
	sched := func(delay Time) func(e *Env, self, idle *Proc) *Proc {
		return func(e *Env, self, _ *Proc) *Proc {
			e.Schedule(delay, func() {})
			return self
		}
	}
	cases := []struct {
		name   string
		part   bool                                 // partition environment
		prep   func(e *Env, self, idle *Proc) *Proc // runs at t=start; returns the process to advance
		drive  func(e *Env)                         // nil: Run
		unwind bool                                 // advance from a deferred call while Close unwinds
		want   bool
	}{
		{name: "accepted", want: true},
		{name: "accepted/heap after now+d", prep: sched(d + 1), want: true},
		{name: "accepted/within RunUntil deadline", drive: func(e *Env) { e.RunUntil(start + d) }, want: true},
		{name: "accepted/before RunBefore bound", part: true, drive: func(e *Env) { e.RunBefore(start + d + 1) }, want: true},
		{name: "ring non-empty", prep: sched(0)},
		{name: "heap before now+d", prep: sched(d - 1)},
		{name: "heap tie at now+d", prep: sched(d)},
		{name: "instant-end pending", prep: func(e *Env, self, _ *Proc) *Proc {
			e.AtInstantEnd(func() {})
			return self
		}},
		{name: "stopped", prep: func(e *Env, self, _ *Proc) *Proc {
			e.Stop()
			return self
		}},
		{name: "past RunUntil deadline", drive: func(e *Env) { e.RunUntil(start + d - 1) }},
		{name: "at RunBefore bound", part: true, drive: func(e *Env) { e.RunBefore(start + d) }},
		{name: "not the running process", prep: func(_ *Env, _, idle *Proc) *Proc { return idle }},
		{name: "during Close unwinding", unwind: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			if tc.part {
				e = NewPartitionEnv(0)
			}
			idle := e.Spawn("idle", func(p *Proc) { p.Await(e.NewEvent()) })
			var got, called bool
			var before, after advSnap
			e.Spawn("self", func(p *Proc) {
				p.Sleep(start)
				target := p
				if tc.prep != nil {
					target = tc.prep(e, p, idle)
				}
				advance := func() {
					before = snap(e)
					got, called = target.TryAdvance(d), true
					after = snap(e)
				}
				if tc.unwind {
					defer advance()
					p.Await(e.NewEvent())
					return
				}
				advance()
			})
			if tc.drive != nil {
				tc.drive(e)
			} else {
				e.Run()
			}
			e.Close()
			if !called {
				t.Fatal("TryAdvance was never called")
			}
			if got != tc.want {
				t.Fatalf("TryAdvance = %v, want %v", got, tc.want)
			}
			want := before
			if tc.want {
				want.now += d
				want.inlined++
			}
			if after != want {
				t.Fatalf("state after TryAdvance = %+v, want %+v (from %+v)", after, want, before)
			}
		})
	}
}

func TestTryAdvanceNegativePanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("p", func(p *Proc) { p.TryAdvance(-1) })
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "negative advance") {
			t.Fatalf("panic = %q, want a negative-advance panic", msg)
		}
	}()
	e.Run()
}

// TestInlinedCountsAdvances: accepted advances count in Inlined, not in
// Steps or Switches, and the process sees the advanced clock.
func TestInlinedCountsAdvances(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var at Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			if !p.TryAdvance(3) {
				t.Errorf("advance %d refused on an otherwise empty environment", i)
			}
		}
		at = p.Now()
	})
	e.Run()
	if at != 15 || e.Inlined() != 5 || e.Steps() != 1 || e.Switches() != 1 {
		t.Fatalf("at=%v Inlined=%d Steps=%d Switches=%d, want 15, 5, 1, 1", at, e.Inlined(), e.Steps(), e.Switches())
	}
}

// TestInlinedCountsAgainstMaxSteps: inlined advances spend the livelock
// budget, so a process that only ever advances in place still trips the
// MaxSteps panic once Steps()+Inlined() passes the bound.
func TestInlinedCountsAgainstMaxSteps(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.MaxSteps = 1000
	e.Spawn("spin", func(p *Proc) {
		for {
			if !p.TryAdvance(1) {
				p.Sleep(1)
			}
		}
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "exceeded MaxSteps=1000") {
			t.Fatalf("panic = %q, want the MaxSteps livelock panic", msg)
		}
		if e.Inlined() == 0 || e.Steps()+e.Inlined() != e.MaxSteps+1 {
			t.Fatalf("Steps=%d Inlined=%d at the panic, want Inlined > 0 and a sum of MaxSteps+1", e.Steps(), e.Inlined())
		}
	}()
	e.Run()
}
