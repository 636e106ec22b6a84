package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: user code running as an iter.Pull
// coroutine that the event loop resumes and parks cooperatively.  A
// coroutine switch hands control directly from the resumer to the process
// and back, so the event loop is the only thread of control: at most one
// process (or event callback) executes at any moment, which keeps
// simulations deterministic without locks.
type Proc struct {
	env    *Env
	name   string
	fn     func(p *Proc)           // process body; dropped once it returns
	next   func() (struct{}, bool) // resume the coroutine until it parks or ends
	stop   func()                  // unwind a parked (or unstarted) coroutine
	yield  func(struct{}) bool     // bound on first resume; park switches through it
	wake   any                     // wake-up value handed over by dispatch
	done   bool
	doneEv *Event // lazily created; fires when the process finishes
	panicv any
	haspan bool
}

// killSignal unwinds a parked process when Env.Close stops its
// coroutine: park raises it when yield reports the coroutine stopped.
type killSignal struct{}

// Spawn creates a process named name running fn and schedules its first
// activation at the current virtual time.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn}
	p.next, p.stop = iter.Pull(p.body)
	e.procs = append(e.procs, p)
	e.ready(0, p, nil)
	return p
}

// body is the coroutine: it binds yield once, runs the process function,
// and records how it ended.  A panic other than killSignal is kept for
// dispatch to re-raise on the event loop with the process name attached.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(killSignal); !killed {
				p.panicv = r
				p.haspan = true
			}
		}
		p.exit()
	}()
	p.fn(p)
}

// exit marks p finished, releases its body, and fires its DoneEvent.
func (p *Proc) exit() {
	p.done = true
	p.fn = nil
	if p.doneEv != nil && !p.doneEv.Fired() {
		p.doneEv.Fire(p)
	}
}

// dispatch resumes p with val and returns once p parks again or finishes.
// It must only be called from event-loop context (an event callback), never
// from inside another process.
func (e *Env) dispatch(p *Proc, val any) {
	if p.done {
		return
	}
	prev := e.cur
	e.cur = p
	p.wake = val
	e.switches++
	p.next()
	e.cur = prev
	if p.haspan {
		v := p.panicv
		p.haspan = false
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, v))
	}
}

// park suspends the calling process until something dispatches it again,
// returning the wake-up value.
func (p *Proc) park() any {
	if !p.yield(struct{}{}) {
		panic(killSignal{})
	}
	v := p.wake
	p.wake = nil
	return v
}

// Park suspends the calling process until a matching Env.Ready (or other
// dispatch) resumes it, returning the wake-up value.  It is the low-level
// primitive for engine code that manages its own wake bookkeeping; most
// callers want Await or Sleep.
func (p *Proc) Park() any { return p.park() }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// DoneEvent returns an event that fires when the process finishes.  It
// fires immediately on subscription if the process already finished.
func (p *Proc) DoneEvent() *Event {
	if p.doneEv == nil {
		p.doneEv = p.env.NewEvent()
		if p.done {
			p.doneEv.Fire(p)
		}
	}
	return p.doneEv
}

// Join suspends the calling process until other finishes.  Joining a
// finished process returns immediately; a process joining itself panics.
func (p *Proc) Join(other *Proc) {
	if p == other {
		panic("sim: process joining itself")
	}
	if other.done {
		return
	}
	p.Await(other.DoneEvent())
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.Now() }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.env.ready(d, p, nil)
	p.park()
}

// TryAdvance moves the clock forward by d in place and reports true when
// parking p for d would have been unobservable: p is the running process,
// the current instant has no other work (empty ring, no pending
// AtInstantEnd callback), the environment is not stopped, every queued
// event lies strictly after now+d, now+d is within the active run's
// deadline, and the MaxSteps budget is not spent.  An event queued at
// exactly now+d was scheduled earlier than the timer p would have set, so
// it must run first: the tie refuses.  Otherwise nothing changes and the
// caller takes its ordinary park path.  An accepted advance executes no
// event and no switch; it counts in Inlined.  A negative d panics.
func (p *Proc) TryAdvance(d Time) bool {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %v", d))
	}
	e := p.env
	t := e.now + d
	if e.cur != p || e.stopped || e.ringPop < len(e.ring) || len(e.instEnd) > 0 ||
		(len(e.heap) > 0 && e.heap[0].at <= t) ||
		(e.deadline >= 0 && t > e.deadline) ||
		(e.MaxSteps != 0 && e.steps+e.inlined >= e.MaxSteps) {
		return false
	}
	e.now = t
	e.inlined++
	return true
}

// Yield suspends the process until all other events already scheduled for
// the current instant have run.
func (p *Proc) Yield() { p.Sleep(0) }

// Await suspends the process until ev fires and returns the event's value.
// If ev already fired it returns immediately.
func (p *Proc) Await(ev *Event) any {
	if ev.fired {
		return ev.val
	}
	ev.waiters = append(ev.waiters, p)
	return p.park()
}

// AwaitAny suspends the process until the first of evs fires, returning its
// index and value.  If several have already fired, the lowest index wins.
// Calling it with no events panics.
func (p *Proc) AwaitAny(evs ...*Event) (int, any) {
	if len(evs) == 0 {
		panic("sim: AwaitAny with no events")
	}
	for i, ev := range evs {
		if ev.fired {
			return i, ev.val
		}
	}
	type wake struct {
		i int
		v any
	}
	woke := false
	for i, ev := range evs {
		i := i
		ev.OnFire(func(v any) {
			if woke {
				return
			}
			woke = true
			p.env.dispatch(p, wake{i, v})
		})
	}
	w := p.park().(wake)
	return w.i, w.v
}
