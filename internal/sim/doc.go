// Package sim provides a small, deterministic discrete-event simulation
// kernel used as the substrate for the COMB reproduction.
//
// The kernel models virtual time in nanoseconds ([Time]), a stable 4-ary
// heap of scheduled callbacks plus a FIFO ring for zero-delay ones
// ([Env.Schedule]), cooperatively scheduled processes running as iter.Pull
// coroutines ([Env.Spawn], [Proc]) and one-shot condition events
// ([Event]).
//
// Determinism: the event loop is the only thread of control.  Resuming a
// process is a coroutine switch into it, and the loop continues only when
// that process parks (sleeps or awaits an event) or terminates.  Ties
// between events scheduled for the same timestamp are broken by
// scheduling order, so a simulation run is a pure function of its inputs.
//
// Counters: [Env.Steps] counts executed events and [Env.Switches] process
// resumptions.  [Proc.TryAdvance] lets the running process move the clock
// in place when nothing else could run before it would have woken;
// [Env.Inlined] counts those elided park/resume pairs, which execute no
// event and no switch.  MaxSteps bounds Steps()+Inlined().
package sim
