package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// host records the conditions a result was measured under, so that two
// results can be compared knowing what differed.
type host struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg    string  `json:"loadavg_before"` // 1, 5 and 15 minute load before the run
	SpinMs     float64 `json:"spin_ms"`        // median time of a fixed integer spin
}

func hostConditions() host {
	h := host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	h.SpinMs = spinMs()
	return h
}

var spinSink uint64

// spinMs times a fixed xorshift loop five times and returns the median,
// a host-speed reference measured alongside every result.
func spinMs() float64 {
	var ts []float64
	for range 5 {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for range 20_000_000 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return median(ts)
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssSampler tracks the process's resident set, sampled every few
// milliseconds, so each pass's peak can be read and reset.
type rssSampler struct {
	peak atomic.Int64 // bytes, since the last take
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			r.sample()
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// sample raises the peak to the current resident set: VmRSS from
// /proc/self/statm, or where /proc is not available, the memory the Go
// runtime holds from the OS.
func (r *rssSampler) sample() {
	var rss int64
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				rss = pages * int64(os.Getpagesize())
			}
		}
	}
	if rss == 0 {
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		metrics.Read(s)
		rss = int64(s[0].Value.Uint64() - s[1].Value.Uint64())
	}
	for {
		p := r.peak.Load()
		if rss <= p || r.peak.CompareAndSwap(p, rss) {
			return
		}
	}
}

// take returns the peak in MB since the previous take and starts a new
// interval.
func (r *rssSampler) take() float64 {
	r.sample()
	return float64(r.peak.Swap(0)) / 1e6
}

func (r *rssSampler) close() {
	close(r.stop)
	<-r.done
}

// scratchDir creates and returns the directory, inside the checkout, for
// files the benchmark writes while it runs.
func scratchDir() (string, error) {
	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	dir := filepath.Join(root, "combbench")
	return dir, os.MkdirAll(dir, 0o755)
}

// probeSetups launches the benchmark n times in set-up probe mode and
// returns the median seconds from launch until the probe reports that
// its first measured operation could start.
func probeSetups(ctx context.Context, w workload, seed uint64, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for range n {
		cmd := exec.CommandContext(ctx, exe, "--probe-setup", "--workload", w.name, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if err := errors.Join(rerr, werr); err != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up probe: %q %v", line, err)
		}
		ts = append(ts, d.Seconds())
	}
	return median(ts), nil
}

// probeChild is the probe side: set up, report ready, tear down.
func probeChild(w workload, seed uint64) error {
	b, err := w.setup(seed)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	b.close()
	return nil
}
