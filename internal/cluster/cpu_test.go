package cluster

import (
	"strings"
	"testing"
	"testing/quick"

	"comb/internal/sim"
)

func TestCPUSingleGrant(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	var done sim.Time
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 100, User)
		done = p.Now()
	})
	env.Run()
	if done != 100 {
		t.Fatalf("grant finished at %v, want 100", done)
	}
	if cpu.Usage(User) != 100 {
		t.Fatalf("usage = %v, want 100", cpu.Usage(User))
	}
}

func TestCPUFIFOWithinPriority(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	var aDone, bDone sim.Time
	env.Spawn("a", func(p *sim.Proc) {
		cpu.Use(p, 100, User)
		aDone = p.Now()
	})
	env.Spawn("b", func(p *sim.Proc) {
		cpu.Use(p, 50, User)
		bDone = p.Now()
	})
	env.Run()
	if aDone != 100 || bDone != 150 {
		t.Fatalf("aDone=%v bDone=%v, want 100 and 150 (FIFO run-to-completion)", aDone, bDone)
	}
}

func TestCPUPreemption(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	var userDone sim.Time
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 1000, User)
		userDone = p.Now()
	})
	// An interrupt arrives mid-work and steals 200 time units.
	var intrDone sim.Time
	env.Schedule(400, func() {
		cpu.Submit(200, Interrupt).OnFire(func(any) { intrDone = env.Now() })
	})
	env.Run()
	if intrDone != 600 {
		t.Fatalf("interrupt finished at %v, want 600 (runs immediately)", intrDone)
	}
	if userDone != 1200 {
		t.Fatalf("user work finished at %v, want 1200 (dilated by 200)", userDone)
	}
	if cpu.Usage(User) != 1000 || cpu.Usage(Interrupt) != 200 {
		t.Fatalf("usage user=%v intr=%v", cpu.Usage(User), cpu.Usage(Interrupt))
	}
}

func TestCPUNestedPreemption(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	var userDone, kernDone, intrDone sim.Time
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 1000, User)
		userDone = p.Now()
	})
	env.Schedule(100, func() {
		cpu.Submit(500, Kernel).OnFire(func(any) { kernDone = env.Now() })
	})
	env.Schedule(200, func() {
		cpu.Submit(100, Interrupt).OnFire(func(any) { intrDone = env.Now() })
	})
	env.Run()
	// Timeline: user 0-100, kernel 100-200, interrupt 200-300,
	// kernel 300-700, user 700-1600.
	if intrDone != 300 {
		t.Errorf("interrupt done at %v, want 300", intrDone)
	}
	if kernDone != 700 {
		t.Errorf("kernel done at %v, want 700", kernDone)
	}
	if userDone != 1600 {
		t.Errorf("user done at %v, want 1600", userDone)
	}
}

func TestCPUZeroDemandImmediate(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	ev := cpu.Submit(0, User)
	if !ev.Fired() {
		t.Fatal("zero demand should complete synchronously")
	}
	reached := false
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 0, Kernel)
		cpu.Use(p, -5, User)
		reached = true
	})
	env.Run()
	if !reached {
		t.Fatal("non-positive Use must not block")
	}
}

func TestCPUTotalBusy(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	cpu.Submit(10, User)
	cpu.Submit(20, Kernel)
	cpu.Submit(30, Interrupt)
	env.Run()
	if cpu.TotalBusy() != 60 {
		t.Fatalf("TotalBusy = %v, want 60", cpu.TotalBusy())
	}
	if env.Now() != 60 {
		t.Fatalf("clock = %v, want 60 (work serialized)", env.Now())
	}
}

// Property: CPU time is conserved — for any random mix of demands, every
// demand completes, total usage equals the sum of demands, and the finish
// time is at least the total demand (single processor can't exceed 100%).
func TestPropertyCPUConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		env := sim.NewEnv()
		defer env.Close()
		cpu := NewCPU(env, "cpu")
		var total sim.Time
		completed := 0
		n := 0
		for i, r := range raw {
			if n >= 64 {
				break
			}
			n++
			d := sim.Time(r%1000) + 1
			prio := Priority(int(r) % int(numPriorities))
			at := sim.Time((i * 37) % 5000)
			total += d
			env.Schedule(at, func() {
				cpu.Submit(d, prio).OnFire(func(any) { completed++ })
			})
		}
		env.Run()
		if completed != n {
			return false
		}
		return cpu.TotalBusy() == total && env.Now() >= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher-priority demand submitted while lower-priority work is
// running always finishes first.
func TestPropertyPreemptionDominance(t *testing.T) {
	f := func(a, b uint16) bool {
		env := sim.NewEnv()
		defer env.Close()
		cpu := NewCPU(env, "cpu")
		dLow := sim.Time(a%5000) + 100
		dHigh := sim.Time(b%500) + 1
		var lowDone, highDone sim.Time
		cpu.Submit(dLow, User).OnFire(func(any) { lowDone = env.Now() })
		env.Schedule(50, func() {
			cpu.Submit(dHigh, Interrupt).OnFire(func(any) { highDone = env.Now() })
		})
		env.Run()
		return highDone == 50+dHigh && lowDone == dLow+dHigh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkDilationMeasuresAvailability(t *testing.T) {
	// The core availability mechanism: a work loop's elapsed time stretches
	// by exactly the higher-priority CPU time injected during it.
	env := sim.NewEnv()
	defer env.Close()
	p := PlatformPIII500()
	node := &Node{ID: 0, Env: env, CPU: NewCPU(env, "cpu"), P: p}
	const iters = 1_000_000
	demand := p.WorkTime(iters)
	// Inject interrupts totalling exactly demand (availability 0.5).
	var injected sim.Time
	for at := sim.Time(0); injected < demand; at += demand / 10 {
		env.Schedule(at, func() { node.CPU.Submit(demand/10, Interrupt) })
		injected += demand / 10
	}
	var elapsed sim.Time
	env.Spawn("worker", func(pr *sim.Proc) {
		start := pr.Now()
		node.Work(pr, iters)
		elapsed = pr.Now() - start
	})
	env.Run()
	avail := float64(demand) / float64(elapsed)
	if avail < 0.45 || avail > 0.55 {
		t.Fatalf("availability = %.3f, want ~0.5 (elapsed %v for demand %v)", avail, elapsed, demand)
	}
}

// TestCPUUseInlineTie pins the strict tie rule of the inline fast path:
// an interrupt queued for exactly the instant a user demand would end was
// scheduled first, so it runs first, preempts the (fully served) grant
// and delays its completion by its own length.  Inlining on a tie would
// return at 10µs instead.
func TestCPUUseInlineTie(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewCPU(env, "cpu")
	env.Schedule(10*sim.Microsecond, func() { cpu.Submit(3*sim.Microsecond, Interrupt) })
	var done sim.Time
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 10*sim.Microsecond, User)
		done = p.Now()
	})
	env.Run()
	if done != 13*sim.Microsecond {
		t.Fatalf("Use returned at %v, want 13µs (interrupt at the tie runs first)", done)
	}
	if cpu.Usage(User) != 10*sim.Microsecond || cpu.Usage(Interrupt) != 3*sim.Microsecond {
		t.Fatalf("usage user=%v intr=%v, want 10µs and 3µs", cpu.Usage(User), cpu.Usage(Interrupt))
	}
}

// TestCPUUseInlineAccounting: uncontended demands are served in place —
// no event, no switch — and still account their CPU time.
func TestCPUUseInlineAccounting(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cpu := NewSMP(env, "cpu", 2)
	var done sim.Time
	env.Spawn("app", func(p *sim.Proc) {
		cpu.Use(p, 40, User)
		cpu.Use(p, 2, Kernel)
		done = p.Now()
	})
	env.Run()
	if done != 42 || cpu.Usage(User) != 40 || cpu.Usage(Kernel) != 2 {
		t.Fatalf("done=%v user=%v kernel=%v, want 42, 40, 2", done, cpu.Usage(User), cpu.Usage(Kernel))
	}
	if env.Inlined() != 2 || env.Steps() != 1 || cpu.Busy() {
		t.Fatalf("Inlined=%d Steps=%d Busy=%v, want 2 inlined demands after one activation on an idle CPU",
			env.Inlined(), env.Steps(), cpu.Busy())
	}
}

// TestInlinedUseLivelockPanics: a process spinning on CPU.Use is served
// inline, yet the MaxSteps safety valve still fires, because inlined
// advances spend the same budget as executed events.
func TestInlinedUseLivelockPanics(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	env.MaxSteps = 1000
	cpu := NewCPU(env, "cpu")
	env.Spawn("spin", func(p *sim.Proc) {
		for {
			cpu.Use(p, 1, User)
		}
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "exceeded MaxSteps") {
			t.Fatalf("panic = %q, want the MaxSteps livelock panic", msg)
		}
		if env.Inlined() == 0 {
			t.Fatal("the spinning Use never took the inline path")
		}
	}()
	env.Run()
}
