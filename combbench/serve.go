package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"comb/internal/core"
	"comb/internal/runpipe"
	"comb/internal/serve"
	"comb/internal/spec"
)

// serveJobs is the length of one serve-mixed pass: the 48 new specs of
// serveShapes and 32 repeats of a spec sent earlier in the same pass.
// With 40% repeats the median job is a simulation, not a store hit, so
// job_ms_p50 does not flip between the two modes from run to run.
const serveJobs = 80

// serveShapes are the 48 new specs of one pass: 24 polling runs with poll
// intervals log-spaced over 1e3..1e6 iterations and 24 PWW runs with work
// intervals log-spaced over 1e4..1e7, alternating ideal and gm and
// cycling through three message sizes.  Evenly spread intervals give a
// smooth spread of job costs, so neither job_ms_p50 nor job_ms_p90 sits
// in a gap between clusters of similar jobs.
func serveShapes() []spec.Spec {
	const n = 24
	systems := []string{"ideal", "gm"}
	sizes := []int{10_000, 50_000, 100_000}
	logSpaced := func(lo float64, i int) int64 { return int64(lo * math.Pow(1000, float64(i)/(n-1))) }
	var out []spec.Spec
	for i := range n {
		out = append(out, spec.Spec{Method: "polling", System: systems[i%2], Params: core.PollingConfig{
			Config: core.Config{MsgSize: sizes[i%3]}, PollInterval: logSpaced(1e3, i), WorkTotal: 25_000_000}})
	}
	for i := range n {
		out = append(out, spec.Spec{Method: "pww", System: systems[i%2], Params: core.PWWConfig{
			Config: core.Config{MsgSize: sizes[i%3]}, WorkInterval: logSpaced(1e4, i), Reps: 20}})
	}
	return out
}

// serveLayer is what a traced serve pass measured inside the service.
type serveLayer struct {
	submit   []time.Duration // POST /v1/jobs round trips
	overhead []time.Duration // job latency minus its engine run time
	store    int64           // jobs answered from the result store
	shared   int64           // jobs that joined an identical in-flight run
	runs     int64           // jobs that ran a simulation
}

// serveBench is one long-lived server on loopback with a result store
// inside the checkout.  Pass p sends the seeded sequence with spec seeds
// shifted by p, so every pass finds the same mix of new specs and
// repeats without resetting the store.
type serveBench struct {
	order   []int // per job: index into shapes of a new spec, or -1-j to repeat job j
	shapes  []spec.Spec
	seeds   []uint64
	dir     string
	srv     *serve.Server
	ts      *httptest.Server
	hc      *http.Client
	passNum int

	hookMu  sync.Mutex
	runTime map[string]time.Duration // per key of the current pass: engine run time

	hashMu sync.Mutex
	hashes map[string]string // per key of the current pass: first result hash seen
}

// newServeBench builds the job sequence and starts the server.  The
// sequence's shape — the order of the new specs, where the repeats fall
// and which earlier job each repeats — comes from a fixed generator, so
// every seed offers the same work in the same order and the same
// concurrency; the seed draws the specs' RNG seeds, which give every
// seed its own cache keys at identical cost on these clean links.
func newServeBench(seed uint64) (*serveBench, error) {
	rng := rand.New(rand.NewPCG(0x5e77e, 1))
	b := &serveBench{shapes: serveShapes()}
	news := rng.Perm(len(b.shapes))
	kinds := make([]bool, serveJobs) // true: new spec
	for i := range len(b.shapes) {
		kinds[i] = true
	}
	// The first job is always new; the rest are shuffled.
	rng.Shuffle(serveJobs-1, func(i, j int) { kinds[i+1], kinds[j+1] = kinds[j+1], kinds[i+1] })
	var issued []int
	for _, isNew := range kinds {
		if isNew {
			issued = append(issued, len(b.order))
			b.order = append(b.order, news[0])
			news = news[1:]
			continue
		}
		b.order = append(b.order, -1-issued[rng.IntN(len(issued))])
	}
	seeds := rand.New(rand.NewPCG(seed, 0x5e77e))
	for range b.shapes {
		b.seeds = append(b.seeds, seeds.Uint64()>>8|1)
	}

	root, err := scratchDir()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "serve-store-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	b.srv = serve.New(serve.Config{
		Workers: workers(),
		Store:   serve.OpenStore(filepath.Join(dir, "store")),
		Run:     b.run,
	})
	b.ts = httptest.NewServer(b.srv.Handler())
	b.hc = b.ts.Client()
	resp, err := b.hc.Get(b.ts.URL + "/healthz")
	if err != nil {
		b.close()
		return nil, err
	}
	resp.Body.Close()
	return b, nil
}

// run is the server's engine hook: runpipe.Run, timed per key.
func (b *serveBench) run(ctx context.Context, s spec.Spec) (*runpipe.Outcome, error) {
	t0 := time.Now()
	out, err := runpipe.Run(ctx, s)
	d := time.Since(t0)
	b.hookMu.Lock()
	b.runTime[s.Key()] = d
	b.hookMu.Unlock()
	return out, err
}

// specFor returns job i's spec in pass p.
func (b *serveBench) specFor(p, i int) spec.Spec {
	k := b.order[i]
	if k < 0 {
		k = b.order[-1-k]
	}
	s := b.shapes[k]
	s.Seed = b.seeds[k] + uint64(p)<<40
	return s
}

func (b *serveBench) points() []spec.Spec {
	var out []spec.Spec
	for i, k := range b.order {
		if k >= 0 {
			out = append(out, b.specFor(0, i))
		}
	}
	return out
}

func (b *serveBench) close() {
	if b.ts != nil {
		b.ts.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	os.RemoveAll(b.dir)
}

func (b *serveBench) finish(context.Context) (int, int) { return 0, 0 }

// pass sends the pass's job sequence from two closed-loop clients.  A
// job's latency runs from the submit request to the client seeing it
// done.  Every job must reach done, and every job of one spec must carry
// the same result hash.
func (b *serveBench) pass(ctx context.Context, tr *tracer) passResult {
	var r passResult
	p := b.passNum
	b.passNum++
	// Keys never recur across passes, so per-pass state starts empty and
	// the process's memory does not grow with the number of passes.
	b.hookMu.Lock()
	b.runTime = map[string]time.Duration{}
	b.hookMu.Unlock()
	b.hashMu.Lock()
	b.hashes = map[string]string{}
	b.hashMu.Unlock()
	src := func(s string) int64 {
		name := fmt.Sprintf("comb_serve_job_source_total{source=%q}", s)
		for _, c := range b.srv.Registry().Snapshot().Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	store0, shared0, runs0 := src(serve.SourceCache), src(serve.SourceShared), src(serve.SourceRun)
	submits := make([]time.Duration, serveJobs)
	views := make([]serve.View, serveJobs)
	root := tr.begin("pass", 0)
	durs, errs := runConcurrent(ctx, workers(), serveJobs, func(ctx context.Context, i int) error {
		sp := tr.begin("serve.job", root)
		defer tr.end(sp)
		v, sub, err := b.job(ctx, b.specFor(p, i))
		submits[i], views[i] = sub, v
		return err
	})
	tr.end(root)
	r.addJobs(durs, errs)
	if tr == nil {
		return r
	}
	r.serve = serveLayer{
		submit: submits,
		store:  src(serve.SourceCache) - store0,
		shared: src(serve.SourceShared) - shared0,
		runs:   src(serve.SourceRun) - runs0,
	}
	b.hookMu.Lock()
	for i, v := range views {
		if v.Source == serve.SourceRun && errs[i] == nil {
			run := b.runTime[v.Key]
			r.runDurs = append(r.runDurs, run)
			r.serve.overhead = append(r.serve.overhead, durs[i]-run)
		}
	}
	b.hookMu.Unlock()
	return r
}

// job submits one spec and long-polls it to a terminal state.  It
// returns the final view and the submit round-trip time.
func (b *serveBench) job(ctx context.Context, s spec.Spec) (serve.View, time.Duration, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return serve.View{}, 0, err
	}
	t0 := time.Now()
	var v serve.View
	if err := b.call(ctx, http.MethodPost, "/v1/jobs", body, &v); err != nil {
		return v, 0, err
	}
	submit := time.Since(t0)
	for !v.State.Terminal() {
		path := fmt.Sprintf("/v1/jobs/%s?wait=30s&since=%d", v.ID, v.Version)
		if err := b.call(ctx, http.MethodGet, path, nil, &v); err != nil {
			return v, submit, err
		}
	}
	if v.State != serve.StateDone {
		return v, submit, fmt.Errorf("serve job %s (%s) ended %s: %s", v.ID, v.Key, v.State, v.Error)
	}
	b.hashMu.Lock()
	defer b.hashMu.Unlock()
	if h, ok := b.hashes[v.Key]; ok && h != v.ResultHash {
		return v, submit, fmt.Errorf("serve job %s (%s) hashed %s, an earlier job of the spec %s", v.ID, v.Key, v.ResultHash, h)
	}
	b.hashes[v.Key] = v.ResultHash
	return v, submit, nil
}

func (b *serveBench) call(ctx context.Context, method, path string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, b.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg.Bytes()))
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return errors.Join(fmt.Errorf("%s %s: decoding reply", method, path), err)
	}
	return nil
}
