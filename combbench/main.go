// Command combbench is the repository's end-to-end benchmark.  It
// regenerates the committed figures and drives the serve API the way
// users do, measures host cost with tracing off, and — in a separate
// traced run — splits that cost over the simulator's layers.  It imports
// the public API of each package and times the calls into it from
// outside; it changes no program code.
//
// Run it from the repository root through combbench/run.sh, which
// builds it from source first:
//
//	bash combbench/run.sh --workload pww-sweep --seed 1 --seconds 25 --trace 0
//	bash combbench/run.sh diff old.json new.json
//
// See usageText for how to read the output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	_ "comb/internal/method/all" // every method resolvable by name
)

const usageText = `combbench — the comb repository benchmark.

Usage:
  bash combbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
  bash combbench/run.sh diff OLD.json NEW.json

Run from the repository root.  run.sh builds the benchmark from source
(Go build cache under $CARGO_TARGET_DIR, default .bench_build) and execs it.

Workloads (the inputs of the figure workloads are the committed figure
definitions; --seed draws the RNG seeds, and so the cache keys, of
serve-mixed's specs):
%s
--trace 0 measures end to end with tracing off.  It repeats whole passes
for --seconds and reports:
  wall_s        median host seconds per pass
  jobs_per_s    simulations (or serve jobs) completed per host second
  job_ms_p50/90 per-job latency, submit to done, over every job of the run
  alloc_mb      median Go bytes allocated per pass
  rss_peak_mb   median over passes of the pass's peak resident set, sampled
                every 5 ms
  setup_s       median, over %d fresh launches, of launch-to-ready time
Every pass checks its outputs: each regenerated figure CSV must equal the
committed results/figNN.csv byte for byte, every simulated point must pass
the invariant checker, each halo result must hash equal to a serial-engine
twin, and every serve job must reach "done" with the same result hash as
every other job of the same spec.  A miss counts in "failed"; the error rate
is failed/attempted.

--trace 1 is the traced run.  It alternates untraced and traced passes
(trace_overhead = traced/untraced median wall time), takes a CPU profile
of the traced passes and buckets its samples by layer, then replays the
workload's distinct points once through the public calls
runpipe.NewPlatform -> method.Execute -> counters -> Close.  How to read it:
  cpu.<layer>        share of profiled CPU: a sample goes to rt_gc if its
                     stack is in allocation or GC, else to rt_sched if it is
                     in goroutine handoff, else to the layer of the leaf-most
                     comb/internal frame (layers.go), else to "other".
                     cpu.unmapped > 0 names a package with no layer (see
                     stderr): add it to layers.go.
  sim.*, cluster.*, mpi.*, transport.*
                     simulated counters of one pass's distinct points, and
                     host cost per event.  The simulated counters are a
                     fingerprint: a speed-only change must leave them equal.
  runner.*, sweep.*, serve.*, runpipe.*, platform.*, method.*
                     per-layer work counts and busy times of one traced pass.
  go.*               Go runtime GC and allocation per traced pass.
A metric reads 0 on a workload whose path does not reach its layer (for
example sim.window_* on the 2-node workloads, serve.* on the figures).

--out FILE writes the full result: host conditions, metrics, the spans
recorded around each layer call, and (traced runs) the per-point simulated
counters with their result hashes.  "diff OLD NEW" lists every simulated
counter that differs between two such files and exits 1 if any does.

The last line of standard output is the result:
  {"correct":..., "attempted":..., "failed":..., "metrics":{name:{"value":v,"unit":u}}}
The two lines before it record the host conditions of the run and how
many passes and job latencies its statistics rest on.
`

// setupProbes is how many fresh launches setup_s takes the median of.
const setupProbes = 15

// hardCap bounds one invocation, whatever --seconds says, so a hung
// program fails the run instead of the run never ending.
const hardCap = 150 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	probe    bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffMain(os.Args[2:], os.Stdout))
	}
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "combbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("combbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 25, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end run; 1: traced per-layer run")
	fs.StringVar(&o.out, "out", "", "write the full result to this file")
	fs.BoolVar(&o.probe, "probe-setup", false, "internal: set up, report ready, exit")
	fs.Usage = func() {
		var ws strings.Builder
		for _, w := range workloads {
			fmt.Fprintf(&ws, "  %-14s %s\n", w.name, w.why)
		}
		fmt.Fprintf(stderr, usageText, ws.String(), setupProbes)
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "combbench: unexpected argument %q\n", fs.Arg(0))
		return o, errors.New("bad arguments")
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "combbench: --seconds must be >= 1 and --trace 0 or 1")
		return o, errors.New("bad arguments")
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// samples says how many measurements a result's statistics rest on.
type samples struct {
	Passes int `json:"passes"`
	Jobs   int `json:"jobs"` // job latencies behind job_ms_p50 and job_ms_p90
}

// report is the --out file: the result plus everything needed to
// interpret and compare it.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Trace       int                    `json:"trace"`
	Host        host                   `json:"host"`
	Samples     samples                `json:"samples"`
	Result      result                 `json:"result"`
	Fingerprint map[string]fingerprint `json:"fingerprint,omitempty"`
	Spans       []span                 `json:"spans,omitempty"`
}

func run(o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.probe {
		return probeChild(w, o.seed)
	}
	h := hostConditions()
	ctx, cancel := context.WithTimeout(context.Background(), hardCap)
	defer cancel()

	rep := report{Workload: w.name, Seed: o.seed, Trace: o.trace, Host: h}
	var err error
	if o.trace == 0 {
		rep.Result, rep.Samples, err = endToEnd(ctx, w, o)
	} else {
		rep.Result, rep.Samples, rep.Fingerprint, rep.Spans, err = traced(ctx, w, o, h)
	}
	if err != nil {
		return err
	}
	if o.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	lines := []struct {
		prefix string
		v      any
	}{{"host ", h}, {"samples ", rep.Samples}, {"", rep.Result}}
	for _, l := range lines {
		b, err := json.Marshal(l.v)
		if err != nil {
			return err
		}
		fmt.Printf("%s%s\n", l.prefix, b)
	}
	return nil
}

// endToEnd is the --trace 0 run: set-up probes, then whole passes for
// the measured seconds, then the checks too costly to repeat per pass.
func endToEnd(ctx context.Context, w workload, o options) (result, samples, error) {
	setupS, err := probeSetups(ctx, w, o.seed, setupProbes)
	if err != nil {
		return result{}, samples{}, err
	}
	b, err := w.setup(o.seed)
	if err != nil {
		return result{}, samples{}, err
	}
	defer b.close()

	rss := startRSSSampler()
	defer rss.close()
	var (
		walls, allocs []float64
		peaks, jobs   []float64
		attempted     int
		failed        int
		busy          time.Duration
	)
	// Start another pass only while a median pass still fits.
	start, budget := time.Now(), time.Duration(o.seconds)*time.Second
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= budget.Seconds() {
		rss.take()
		a0 := totalAlloc()
		t0 := time.Now()
		pr := b.pass(ctx, nil)
		wall := time.Since(t0)
		allocs = append(allocs, float64(totalAlloc()-a0)/1e6)
		peaks = append(peaks, rss.take())
		walls = append(walls, wall.Seconds())
		busy += wall
		for _, d := range pr.jobs {
			jobs = append(jobs, float64(d)/1e6)
		}
		attempted += pr.attempted
		failed += pr.failed
		if ctx.Err() != nil {
			return result{}, samples{}, ctx.Err()
		}
	}
	fa, ff := b.finish(ctx)
	attempted += fa
	failed += ff
	if len(jobs) == 0 {
		return result{}, samples{}, errors.New("no job completed")
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"wall_s":      {median(walls), "s"},
			"jobs_per_s":  {float64(len(jobs)) / busy.Seconds(), "1/s"},
			"job_ms_p50":  {quantile(jobs, 0.5), "ms"},
			"job_ms_p90":  {quantile(jobs, 0.9), "ms"},
			"alloc_mb":    {median(allocs), "MB"},
			"rss_peak_mb": {median(peaks), "MB"},
			"setup_s":     {setupS, "s"},
		},
	}, samples{Passes: len(walls), Jobs: len(jobs)}, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
