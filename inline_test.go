package comb

import (
	"context"
	"testing"

	"comb/internal/cluster"
	"comb/internal/method"
	"comb/internal/obs"
	"comb/internal/runpipe"
	"comb/internal/sim"
)

// inlineOutcome is everything a run reports that the CPU fast path could
// conceivably disturb.
type inlineOutcome struct {
	hash            string
	usage           [][3]sim.Time // per node: user, kernel, interrupt
	packets, wire   int64
	end             sim.Time
	inlined, events uint64
}

// runInlineProbe executes s on the serial engine.  With every > 0 it
// also plants a no-op event every `every` of virtual time before horizon,
// which leaves almost no demand uncontended and so sends CPU.Use down its
// full grant, timer and park path.
func runInlineProbe(t *testing.T, s RunSpec, every, horizon sim.Time) inlineOutcome {
	t.Helper()
	n, m, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := runpipe.NewPlatform(n)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	env := in.Sys.Env
	if every > 0 {
		// Ticks stay strictly before horizon, so the final clock equals
		// horizon exactly when the simulation itself ends there.
		var tick func()
		tick = func() {
			if env.Pending() > 0 && env.Now()+every < horizon {
				env.Schedule(every, tick)
			}
		}
		env.Schedule(every, tick)
	}
	res, chk, err := method.Execute(context.Background(), m, in, method.Config{System: n.System, CPUs: n.CPUs, Params: n.Params}, method.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
	var out inlineOutcome
	if out.hash, err = obs.HashResult(res); err != nil {
		t.Fatal(err)
	}
	for _, nd := range in.Sys.Nodes {
		out.usage = append(out.usage, [3]sim.Time{
			nd.CPU.Usage(cluster.User), nd.CPU.Usage(cluster.Kernel), nd.CPU.Usage(cluster.Interrupt),
		})
	}
	out.packets, out.wire, _ = in.Sys.Fabric.Stats()
	out.end = env.Now()
	out.inlined, out.events = env.Inlined(), env.Steps()
	return out
}

// TestInlineAdvanceInvisible is the metamorphic relation behind the
// inline CPU fast path: forcing every demand through the slow path (a
// no-op event every 50 ns) must not change the result hash, the
// per-priority CPU time, the wire counters or the end time — on a GM
// polling point, an interrupt-driven Portals PWW point and a 2-CPU point.
func TestInlineAdvanceInvisible(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"gm-polling", RunSpec{Method: MethodPolling, System: "gm", Polling: &PollingConfig{
			Config: Config{MsgSize: 10_000}, PollInterval: 10_000, WorkTotal: 2_000_000,
		}}},
		{"portals-pww", RunSpec{Method: MethodPWW, System: "portals", PWW: &PWWConfig{
			Config: Config{MsgSize: 50_000}, WorkInterval: 200_000, Reps: 3,
		}}},
		{"portals-polling-2cpu", RunSpec{Method: MethodPolling, System: "portals", CPUs: 2, Polling: &PollingConfig{
			Config: Config{MsgSize: 20_000}, PollInterval: 20_000, WorkTotal: 2_000_000,
		}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain := runInlineProbe(t, c.spec, 0, 0)
			forced := runInlineProbe(t, c.spec, 50*sim.Nanosecond, plain.end)
			if plain.inlined == 0 {
				t.Fatal("plain run inlined no CPU demand: the fast path is not engaged")
			}
			if forced.inlined >= plain.inlined {
				t.Fatalf("ticked run inlined %d demands, plain %d: the ticker did not force the slow path", forced.inlined, plain.inlined)
			}
			if plain.hash != forced.hash {
				t.Errorf("result hash %s (inline) vs %s (forced slow path)", plain.hash, forced.hash)
			}
			for i := range plain.usage {
				if plain.usage[i] != forced.usage[i] {
					t.Errorf("node %d CPU usage (user, kernel, intr) %v (inline) vs %v (forced slow path)", i, plain.usage[i], forced.usage[i])
				}
			}
			if plain.packets != forced.packets || plain.wire != forced.wire {
				t.Errorf("packets/wire bytes %d/%d (inline) vs %d/%d (forced slow path)", plain.packets, plain.wire, forced.packets, forced.wire)
			}
			if plain.end != forced.end {
				t.Errorf("end time %v (inline) vs %v (forced slow path)", plain.end, forced.end)
			}
			t.Logf("inlined %d (plain) vs %d (forced); events %d vs %d", plain.inlined, forced.inlined, plain.events, forced.events)
		})
	}
}
