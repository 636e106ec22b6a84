package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"comb/internal/method/halo"
	"comb/internal/runner"
	"comb/internal/runpipe"
	"comb/internal/spec"
	"comb/internal/sweep"
)

// workload is one named set of inputs.  Later changes refer to the
// workloads by these names; the why of each is its reason for existing.
type workload struct {
	name, why string
	setup     func(seed uint64) (bench, error)
}

var workloads = []workload{
	{
		name: "pww-sweep",
		why:  "Figures 6,7,9-13: 55 PWW simulations of 10-300 KB messages on 2 nodes; bulk payloads, about 1 GB of messages and 262 MB allocated per pass",
		setup: func(uint64) (bench, error) {
			return newFigureBench([]string{"6", "7", "9", "10", "11", "12", "13"}, 0, nil)
		},
	},
	{
		name: "poll-sweep",
		why:  "Figures 16,17: 37 GM polling and PWW simulations; millions of tiny work slices make goroutine handoff the main cost",
		setup: func(uint64) (bench, error) {
			return newFigureBench([]string{"16", "17"}, 0, nil)
		},
	},
	{
		name: "collective-8n",
		why:  "Figure 18 plus halo wait/poll at 8 nodes with SimWorkers 2: the only path through MPI collectives, deferred claims and sim.Windows",
		setup: func(uint64) (bench, error) {
			return newFigureBench([]string{"18"}, workers(), haloSpecs())
		},
	},
	{
		name: "serve-mixed",
		why:  "2 closed-loop HTTP clients on the serve handler: 48 new ideal/gm polling and PWW specs (simulations) and 32 repeats (store or in-flight hits) per pass",
		setup: func(seed uint64) (bench, error) {
			return newServeBench(seed)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workers is the concurrency of the pools that run in parallel: the
// window engine's SimWorkers, serve workers and serve clients.  Two, or
// fewer on a smaller host, so all load comes from one process within
// nproc.
func workers() int { return min(2, runtime.NumCPU()) }

// bench is one set-up workload.
type bench interface {
	// pass runs one whole pass.  tr is nil when tracing is off.
	pass(ctx context.Context, tr *tracer) passResult
	// points lists the distinct simulations one pass runs, in order,
	// for the traced replay.
	points() []spec.Spec
	// finish runs the checks too costly to repeat in every pass and
	// reports how many it attempted and how many failed.
	finish(ctx context.Context) (attempted, failed int)
	close()
}

// passResult is what one pass did.
type passResult struct {
	jobs      []time.Duration // latency of every completed job
	attempted int             // jobs plus output checks
	failed    int

	// Filled by traced passes only.
	engine   runner.Stats
	shapeDur time.Duration   // sweep shaping after the points were simulated
	runDurs  []time.Duration // runpipe.Run calls
	serve    serveLayer
}

// runConcurrent runs fn(i) for every i < n from k goroutines, each
// taking the next index when its previous call returns (a closed loop),
// and returns every call's latency and error by index.
func runConcurrent(ctx context.Context, k, n int, fn func(ctx context.Context, i int) error) ([]time.Duration, []error) {
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				t0 := time.Now()
				errs[i] = fn(ctx, i)
				durs[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return durs, errs
}

// figureBench regenerates a set of committed figures on a fresh engine
// per pass, and optionally runs extra single points through the facade
// pipeline (runpipe.Run) whose results must hash equal to a serial twin.
// Points run one at a time (runner Workers 1, as comb figure -j 1): a
// pass's wall time is then the sum of its points' host cost, unblurred
// by two simulations contending for the cores, and the window engine of
// collective-8n gets every core it asks for.
type figureBench struct {
	figs       []sweep.Figure
	golden     map[string]string
	uniq       []spec.Spec // distinct figure points, in build order
	simWorkers int

	twins  []spec.Spec // extra single runs, checked against serial twins
	mu     sync.Mutex
	hashes [][]string // per twin spec: the hash of every pass's run
}

func newFigureBench(ids []string, simWorkers int, twins []spec.Spec) (*figureBench, error) {
	b := &figureBench{golden: map[string]string{}, simWorkers: simWorkers, twins: twins,
		hashes: make([][]string, len(twins))}
	seen := map[string]bool{}
	for _, id := range ids {
		f, err := sweep.ByID(id)
		if err != nil {
			return nil, err
		}
		path := filepath.Join("results", fmt.Sprintf("fig%02s.csv", id))
		g, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("golden figure (run from the repository root): %w", err)
		}
		b.figs = append(b.figs, f)
		b.golden[id] = string(g)
		for _, pt := range f.Points(sweep.Options{}) {
			n, _, err := pt.Normalized()
			if err != nil {
				return nil, err
			}
			if k := n.Key(); !seen[k] {
				seen[k] = true
				n.SimWorkers = simWorkers
				b.uniq = append(b.uniq, n)
			}
		}
	}
	return b, nil
}

// haloSpecs are collective-8n's halo exchanges: both progress
// disciplines at a small and a large halo, on the 8-rank torus.
func haloSpecs() []spec.Spec {
	var out []spec.Spec
	for _, size := range []int{8 << 10, 64 << 10} {
		for _, prog := range []string{halo.ProgressWait, halo.ProgressPoll} {
			out = append(out, spec.Spec{
				Method: "halo", System: "gm", Nodes: 8, SimWorkers: workers(),
				Params: halo.Params{MsgSize: size, Iters: 32, WorkIters: 200_000, Progress: prog},
			})
		}
	}
	return out
}

func (b *figureBench) points() []spec.Spec {
	return append(append([]spec.Spec(nil), b.uniq...), b.twins...)
}

func (b *figureBench) close() {}

// pass simulates every distinct figure point on a fresh engine (each
// Engine.Run call is one job, timed from the caller's side), then builds
// each figure — now pure shaping over memo hits — and compares its CSV
// with the committed golden.  The extra single runs follow.
func (b *figureBench) pass(ctx context.Context, tr *tracer) passResult {
	var r passResult
	root := tr.begin("pass", 0)
	eng := runner.New(runner.Config{Workers: 1, SimWorkers: b.simWorkers})
	durs, errs := runConcurrent(ctx, 1, len(b.uniq), func(ctx context.Context, i int) error {
		sp := tr.begin("runner.Run", root)
		defer tr.end(sp)
		_, err := eng.Run(ctx, b.uniq[i])
		return err
	})
	r.addJobs(durs, errs)

	t0 := time.Now()
	opt := sweep.Options{Engine: eng, Context: ctx}
	for _, f := range b.figs {
		sp := tr.begin("sweep.Build", root)
		tbl, err := f.Build(opt)
		tr.end(sp)
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			fmt.Fprintf(os.Stderr, "combbench: figure %s: %v\n", f.ID, err)
		case tbl.CSV() != b.golden[f.ID]:
			r.failed++
			fmt.Fprintf(os.Stderr, "combbench: figure %s CSV differs from results/fig%02s.csv\n", f.ID, f.ID)
		}
	}
	r.shapeDur = time.Since(t0)
	r.engine = eng.Stats()

	hashes := make([]string, len(b.twins))
	durs, errs = runConcurrent(ctx, 1, len(b.twins), func(ctx context.Context, i int) error {
		sp := tr.begin("runpipe.Run", root)
		defer tr.end(sp)
		out, err := runpipe.Run(ctx, b.twins[i])
		if err == nil {
			hashes[i] = out.Manifest.ResultHash
		}
		return err
	})
	r.addJobs(durs, errs)
	if tr != nil {
		r.runDurs = durs
	}
	b.mu.Lock()
	for i, h := range hashes {
		if h != "" {
			b.hashes[i] = append(b.hashes[i], h)
		}
	}
	b.mu.Unlock()
	tr.end(root)
	return r
}

// finish runs each extra point once on the serial engine and checks that
// every pass's windowed result hashed equal to it.
func (b *figureBench) finish(ctx context.Context) (attempted, failed int) {
	for i, s := range b.twins {
		s.SimWorkers = 0
		out, err := runpipe.Run(ctx, s)
		b.mu.Lock()
		hs := b.hashes[i]
		b.mu.Unlock()
		attempted += len(hs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "combbench: serial twin of %s: %v\n", s.Key(), err)
			failed += len(hs)
			continue
		}
		for _, h := range hs {
			if h != out.Manifest.ResultHash {
				failed++
				fmt.Fprintf(os.Stderr, "combbench: %s hashed %s on the window engine, %s serially\n",
					s.Key(), h, out.Manifest.ResultHash)
			}
		}
	}
	return attempted, failed
}

// addJobs folds one batch of job latencies and errors into the pass.
func (r *passResult) addJobs(durs []time.Duration, errs []error) {
	for i, err := range errs {
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "combbench: job %d: %v\n", i, err)
			continue
		}
		r.jobs = append(r.jobs, durs[i])
	}
}
