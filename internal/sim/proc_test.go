package sim

import (
	"strings"
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var wake []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			wake = append(wake, p.Now())
		}
	})
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if wake[i] != want[i] {
			t.Fatalf("wake = %v, want %v", wake, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var order []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			p.Sleep(10)
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(5)
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			p.Sleep(10)
		}
	})
	e.Run()
	got := strings.Join(order, "")
	if got != "abababa"[:len(got)] || len(got) != 6 {
		t.Fatalf("interleaving = %q, want ababab", got)
	}
}

func TestProcAwaitEvent(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	ev := e.NewEvent()
	var got any
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = p.Await(ev)
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(42)
		ev.Fire("hello")
	})
	e.Run()
	if got != "hello" || at != 42 {
		t.Fatalf("Await got %v at t=%v, want hello at 42", got, at)
	}
}

func TestProcAwaitFiredEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	ev := e.NewEvent()
	ev.Fire(7)
	var got any
	e.Spawn("w", func(p *Proc) { got = p.Await(ev) })
	e.Run()
	if got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
}

func TestAwaitAnyFirstWins(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	a, b, c := e.NewEvent(), e.NewEvent(), e.NewEvent()
	var idx int
	var val any
	e.Spawn("w", func(p *Proc) { idx, val = p.AwaitAny(a, b, c) })
	e.Spawn("f", func(p *Proc) {
		p.Sleep(5)
		b.Fire("b")
		p.Sleep(5)
		a.Fire("a")
		c.Fire("c")
	})
	e.Run()
	if idx != 1 || val != "b" {
		t.Fatalf("AwaitAny = (%d, %v), want (1, b)", idx, val)
	}
}

func TestAwaitAnyAlreadyFiredLowestIndex(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	a, b := e.NewEvent(), e.NewEvent()
	a.Fire(1)
	b.Fire(2)
	var idx int
	e.Spawn("w", func(p *Proc) { idx, _ = p.AwaitAny(b, a) })
	e.Run()
	if idx != 0 {
		t.Fatalf("idx = %d, want 0 (lowest fired index)", idx)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected process panic to propagate to Run")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic %v does not mention boom", r)
		}
	}()
	e.Run()
}

func TestCloseKillsParkedProcs(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent() // never fires
	p := e.Spawn("stuck", func(p *Proc) { p.Await(ev) })
	e.Run()
	if p.Done() {
		t.Fatal("proc finished without event")
	}
	e.Close()
	if !p.Done() {
		t.Fatal("Close did not terminate parked proc")
	}
	e.Close() // idempotent
}

func TestEventFireTwicePanics(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Fire(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double fire")
		}
	}()
	ev.Fire(nil)
}

func TestOnFireAfterFiredSchedules(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Fire(3)
	got := 0
	ev.OnFire(func(v any) { got = v.(int) })
	if got != 0 {
		t.Fatal("callback ran synchronously")
	}
	e.Run()
	if got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		defer e.Close()
		var log []string
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			d := Time(i%3 + 1)
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(d)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if strings.Join(a, "") != strings.Join(b, "") {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestProcJoin(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	worker := e.Spawn("worker", func(p *Proc) { p.Sleep(100) })
	var joinedAt Time
	e.Spawn("joiner", func(p *Proc) {
		p.Join(worker)
		joinedAt = p.Now()
	})
	e.Run()
	if joinedAt != 100 {
		t.Fatalf("joined at %v, want 100", joinedAt)
	}
}

func TestProcJoinFinished(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	fast := e.Spawn("fast", func(p *Proc) {})
	var ok bool
	e.Spawn("late", func(p *Proc) {
		p.Sleep(50)
		p.Join(fast) // already finished: immediate
		ok = p.Now() == 50
	})
	e.Run()
	if !ok {
		t.Fatal("joining a finished process must not block")
	}
}

func TestProcJoinSelfPanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("narcissist", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected self-join panic")
			}
		}()
		p.Join(p)
	})
	e.Run()
}

func TestDoneEventAfterFinish(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	worker := e.Spawn("w", func(p *Proc) {})
	e.Run()
	if !worker.DoneEvent().Fired() {
		// DoneEvent created after completion must be pre-fired.
		t.Fatal("late DoneEvent not fired")
	}
}

func TestDoneEventMultipleJoiners(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	worker := e.Spawn("w", func(p *Proc) { p.Sleep(10) })
	joined := 0
	for i := 0; i < 3; i++ {
		e.Spawn("j", func(p *Proc) {
			p.Join(worker)
			joined++
		})
	}
	e.Run()
	if joined != 3 {
		t.Fatalf("joined = %d, want 3", joined)
	}
}

func TestCloseUnstartedProc(t *testing.T) {
	e := NewEnv()
	ran := false
	p := e.Spawn("never", func(p *Proc) { ran = true })
	done := p.DoneEvent()
	e.Close() // before Run: the first activation never dispatched
	if ran {
		t.Fatal("Close ran the body of an unstarted process")
	}
	if !p.Done() {
		t.Fatal("Close left an unstarted process not Done")
	}
	if !done.Fired() {
		t.Fatal("Close did not fire an unstarted process's DoneEvent")
	}
}

func TestCloseRunsParkedDefers(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent() // never fires
	unwound := false
	p := e.Spawn("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		p.Await(ev)
		t.Error("Await returned after Close")
	})
	done := p.DoneEvent()
	e.Run()
	e.Close()
	if !unwound || !p.Done() || !done.Fired() {
		t.Fatalf("after Close: unwound=%v done=%v fired=%v, want all true", unwound, p.Done(), done.Fired())
	}
}

// TestProcResumeAcrossGoroutines is the window engine's situation:
// processes are spawned on one goroutine and resumed by event loops
// running on others, handed over through channels.  Under -race it
// checks the coroutine switch publishes process state to each resumer.
func TestProcResumeAcrossGoroutines(t *testing.T) {
	e := NewEnv()
	var log []Time
	for i := 0; i < 3; i++ {
		d := Time(i + 1)
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(d)
				log = append(log, p.Now())
			}
		})
	}
	handoff := make(chan Time)
	finished := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func() {
			defer func() { finished <- struct{}{} }()
			if bound, ok := <-handoff; ok {
				e.RunUntil(bound)
			} else {
				e.Run()
			}
		}()
	}
	handoff <- 5
	<-finished
	close(handoff)
	<-finished
	e.Close()
	if len(log) != 12 || e.Now() != 12 {
		t.Fatalf("got %d wakes ending at t=%v, want 12 ending at t=12", len(log), e.Now())
	}
	for i := 1; i < len(log); i++ {
		if log[i] < log[i-1] {
			t.Fatalf("wake times went backwards: %v", log)
		}
	}
}

func TestProcPanicAfterSwitchesNamesProcess(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Spawn("bystander", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	e.Spawn("worker-7", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(2)
		}
		panic("boom")
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"worker-7"`) || !strings.Contains(msg, "boom") {
			t.Fatalf("panic = %q, want it to name worker-7 and carry boom", msg)
		}
	}()
	e.Run()
}

func TestProcSwitchCount(t *testing.T) {
	const n = 7
	e := NewEnv()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(3)
		}
	})
	ev := e.NewEvent() // never fires: its waiter is killed by Close
	e.Spawn("stuck", func(p *Proc) { p.Await(ev) })
	e.Run()
	if got, want := e.Switches(), uint64(n+1+1); got != want {
		t.Fatalf("Switches = %d, want %d (sleeper %d+1, stuck 1)", got, want, n)
	}
	e.Close()
	if got := e.Switches(); got != n+2 {
		t.Fatalf("Close changed Switches to %d; kills are not switches", got)
	}
}
