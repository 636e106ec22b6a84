package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"comb/internal/cluster"
	"comb/internal/method"
	"comb/internal/runpipe"
	"comb/internal/spec"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes.  Parent is the enclosing span's ID (0 for a
// root); times are microseconds since the traced run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory.  A nil *tracer records nothing, so the
// untraced passes run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// traced is the --trace 1 run.  It alternates untraced and traced passes
// while a further pair fits in the measured seconds, profiling the CPU
// during traced passes only, then replays the workload's distinct points
// once for the per-layer counters.
func traced(ctx context.Context, w workload, o options, h host) (result, samples, map[string]fingerprint, []span, error) {
	b, err := w.setup(o.seed)
	if err != nil {
		return result{}, samples{}, nil, nil, err
	}
	defer b.close()

	tr := &tracer{t0: time.Now()}
	var (
		plain, withTrace     []float64
		gcCycles, gcPause    []float64
		allocs, shapes, runs []float64
		submits, overheads   []float64
		last                 passResult
		attempted, failed    int
		jobs                 int
		prof                 = newCPUProfile()
	)
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	for {
		pairStart := time.Now()
		pr := b.pass(ctx, nil)
		plain = append(plain, time.Since(pairStart).Seconds())
		attempted, failed = attempted+pr.attempted, failed+pr.failed

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return result{}, samples{}, nil, nil, err
		}
		t0 := time.Now()
		last = b.pass(ctx, tr)
		withTrace = append(withTrace, time.Since(t0).Seconds())
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		if err := prof.add(buf.Bytes()); err != nil {
			return result{}, samples{}, nil, nil, err
		}
		attempted, failed = attempted+last.attempted, failed+last.failed
		jobs += len(pr.jobs) + len(last.jobs)
		gcCycles = append(gcCycles, float64(ms1.NumGC-ms0.NumGC))
		gcPause = append(gcPause, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		shapes = append(shapes, last.shapeDur.Seconds())
		runs = append(runs, msOf(last.runDurs)...)
		submits = append(submits, msOf(last.serve.submit)...)
		overheads = append(overheads, msOf(last.serve.overhead)...)

		if err := ctx.Err(); err != nil {
			return result{}, samples{}, nil, nil, err
		}
		// The replay costs about one more pair; stop when another pair
		// and the replay would overrun the measured seconds.
		if time.Since(start)+2*time.Since(pairStart) > budget {
			break
		}
	}
	fa, ff := b.finish(ctx)
	attempted, failed = attempted+fa, failed+ff

	rp, err := replay(ctx, b.points(), tr)
	if err != nil {
		return result{}, samples{}, nil, nil, err
	}
	attempted, failed = attempted+rp.attempted, failed+rp.failed

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("host.spin_ms", h.SpinMs, "ms")
	put("error_rate", float64(failed)/float64(max(attempted, 1)), "ratio")
	put("trace_overhead", median(withTrace)/median(plain), "ratio")
	for _, l := range cpuBuckets {
		put("cpu."+l, prof.share(l), "share")
	}
	for pkg := range prof.unmapped {
		fmt.Fprintf(os.Stderr, "combbench: package %s has CPU samples but no layer in layers.go\n", pkg)
	}

	t := rp.total
	put("sim.events", float64(t.Events), "count")
	put("sim.ns_per_event", ratio(float64(rp.exec.Nanoseconds()), float64(t.Events)), "ns")
	put("sim.window_rounds", float64(rp.windowRounds), "count")
	put("sim.window_stalls", float64(rp.windowStalls), "count")
	put("sim.window_speedup", ratio(rp.serialExec.Seconds(), rp.windowExec.Seconds()), "ratio")
	put("cluster.packets", float64(t.Packets), "count")
	put("cluster.wire_mb", float64(t.WireBytes)/1e6, "MB")
	put("cluster.cpu_user_sim_s", float64(t.UserNs)/1e9, "s")
	put("cluster.cpu_kernel_sim_s", float64(t.KernelNs)/1e9, "s")
	put("cluster.cpu_intr_sim_s", float64(t.IntrNs)/1e9, "s")
	put("mpi.msgs", float64(t.Msgs), "count")
	put("mpi.payload_mb", float64(t.PayloadBytes)/1e6, "MB")
	put("transport.packets_per_msg", ratio(float64(t.Packets), float64(t.Msgs)), "count")
	put("platform.build_ms", median(msOf(rp.builds)), "ms")
	put("method.exec_s", rp.exec.Seconds(), "s")
	put("sweep.build_s", median(shapes), "s")
	put("go.alloc_per_payload_byte", ratio(median(allocs), float64(t.PayloadBytes)), "B/B")
	put("go.gc_cycles", median(gcCycles), "count")
	put("go.gc_pause_ms", median(gcPause), "ms")

	e := last.engine
	put("runner.runs", float64(e.Runs), "count")
	put("runner.mem_hits", float64(e.MemHits), "count")
	put("runner.shared_hits", float64(e.SharedHits), "count")
	put("runner.calib_hits", float64(e.CalibHits), "count")
	hits := e.MemHits + e.DiskHits + e.SharedHits
	put("runner.hit_ratio", ratio(float64(hits), float64(hits+e.Runs)), "ratio")
	put("runpipe.run_ms_p50", median(runs), "ms")
	put("serve.submit_ms_p50", median(submits), "ms")
	put("serve.overhead_ms_p50", median(overheads), "ms")
	put("serve.store_hits", float64(last.serve.store), "count")
	put("serve.shared_hits", float64(last.serve.shared), "count")
	put("serve.runs", float64(last.serve.runs), "count")

	res := result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m}
	n := samples{Passes: len(plain) + len(withTrace), Jobs: jobs}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return res, n, rp.fingerprints, tr.spans, nil
}

// replayed is what the replay measured over a workload's distinct points.
type replayed struct {
	fingerprints map[string]fingerprint
	total        fingerprint
	exec         time.Duration   // method.Execute time on the workload's engine
	builds       []time.Duration // runpipe.NewPlatform time per point
	windowExec   time.Duration   // ... of the points that ran windowed
	serialExec   time.Duration   // their serial twins
	windowRounds uint64
	windowStalls uint64
	attempted    int
	failed       int
}

// replay runs each distinct point once, in order, through the public
// run pipeline with the runner's dry-run calibration applied, so it
// simulates the same events a sweep does.  A point that runs on the
// window engine is also run serially; the two must hash equal.
func replay(ctx context.Context, pts []spec.Spec, tr *tracer) (replayed, error) {
	rp := replayed{fingerprints: map[string]fingerprint{}}
	calib := map[calibKey]time.Duration{}
	root := tr.begin("replay", 0)
	defer tr.end(root)
	for _, p := range pts {
		n, m, err := p.Normalized()
		if err != nil {
			return rp, err
		}
		key := spec.KeyOf(n, m)
		if _, done := rp.fingerprints[key]; done {
			continue
		}
		rp.attempted++
		pr, err := replayOne(ctx, n, m, calib, tr, root)
		if err != nil {
			rp.failed++
			fmt.Fprintf(os.Stderr, "combbench: replay %s: %v\n", key, err)
			continue
		}
		rp.fingerprints[key] = pr.fp
		rp.total.add(pr.fp)
		rp.exec += pr.exec
		rp.builds = append(rp.builds, pr.build)
		if pr.windowed {
			rp.windowRounds += pr.rounds
			rp.windowStalls += pr.stalls
			n.SimWorkers = 0
			twin, err := replayOne(ctx, n, m, calib, tr, root)
			rp.attempted++
			if err != nil || twin.fp.Hash != pr.fp.Hash {
				rp.failed++
				fmt.Fprintf(os.Stderr, "combbench: %s: windowed and serial replays differ (%v)\n", key, err)
				continue
			}
			rp.windowExec += pr.exec
			rp.serialExec += twin.exec
		}
	}
	return rp, nil
}

// calibKey mirrors the runner's dry-run calibration key: the dry run's
// duration depends only on the system, the processor count and the
// iteration count.
type calibKey struct {
	system string
	cpus   int
	iters  int64
}

type onePoint struct {
	fp             fingerprint
	build, exec    time.Duration
	windowed       bool
	rounds, stalls uint64
}

// replayOne builds the platform, executes the method, reads every
// counter, and closes the platform, each call inside its own span.
func replayOne(ctx context.Context, n spec.Spec, m method.Method, calib map[calibKey]time.Duration, tr *tracer, parent int) (onePoint, error) {
	var op onePoint
	params := n.Params
	var ck calibKey
	cal, canCal := m.(method.Calibratable)
	if canCal {
		iters, ok := cal.CalibIters(params)
		canCal = ok
		ck = calibKey{n.System, n.CPUs, iters}
		if d, hit := calib[ck]; ok && hit {
			params = cal.Calibrated(params, d)
		}
	}
	sp := tr.begin("platform.NewPlatform", parent)
	t0 := time.Now()
	in, err := runpipe.NewPlatform(n)
	op.build = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return op, err
	}
	defer func() {
		sp := tr.begin("platform.Close", parent)
		in.Close()
		tr.end(sp)
	}()

	sp = tr.begin("method.Execute", parent)
	t0 = time.Now()
	res, chk, err := method.Execute(ctx, m, in, method.Config{System: n.System, CPUs: n.CPUs, Params: params}, method.ExecOptions{})
	op.exec = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return op, err
	}
	if err := chk.Err(); err != nil {
		return op, err
	}
	if canCal {
		if d := cal.CalibResult(res); d > 0 {
			if _, ok := calib[ck]; !ok {
				calib[ck] = d
			}
		}
	}

	for _, env := range in.Sys.Envs {
		op.fp.Events += env.Steps()
	}
	stats := &runpipe.RunStats{}
	stats.Packets, stats.WireBytes, _ = in.Sys.Fabric.Stats()
	for _, nd := range in.Sys.Nodes {
		c := runpipe.NodeCPU{
			Node:      nd.ID,
			Cores:     nd.CPU.Cores(),
			User:      time.Duration(nd.CPU.Usage(cluster.User)),
			Kernel:    time.Duration(nd.CPU.Usage(cluster.Kernel)),
			Interrupt: time.Duration(nd.CPU.Usage(cluster.Interrupt)),
		}
		stats.CPUs = append(stats.CPUs, c)
		op.fp.UserNs += c.User.Nanoseconds()
		op.fp.KernelNs += c.Kernel.Nanoseconds()
		op.fp.IntrNs += c.Interrupt.Nanoseconds()
	}
	op.fp.Packets, op.fp.WireBytes = stats.Packets, stats.WireBytes
	meter := chk.Meter()
	op.fp.Msgs, op.fp.PayloadBytes = meter.DoneSends, meter.SentBytes
	op.rounds, op.stalls, op.windowed = in.WindowStats()
	op.fp.Hash, err = runpipe.HashOutcome(m.Name(), res, stats)
	return op, err
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (the layer is not on this path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
