package main

import "strings"

// layerOf maps each comb package to the layer its CPU samples count
// toward.  A comb/internal package that shows up in a profile without an
// entry here is reported (cpu.unmapped and a line on stderr), so a new
// package never hides in "other".
var layerOf = map[string]string{
	"comb/internal/sim": "sim",

	"comb/internal/cluster": "cluster",

	"comb/internal/transport":   "transport",
	"comb/internal/faultinject": "transport", // wraps a transport

	"comb/internal/mpi": "mpi",

	"comb/internal/core":           "method",
	"comb/internal/machine":        "method",
	"comb/internal/method":         "method",
	"comb/internal/method/polling": "method",
	"comb/internal/method/pww":     "method",
	"comb/internal/method/collov":  "method",
	"comb/internal/method/halo":    "method",
	"comb/internal/invariant":      "method", // attached by method.Execute
	"comb/internal/pingpong":       "method",
	"comb/internal/netperf":        "method",

	"comb/internal/platform": "platform",
	"comb/internal/runpipe":  "platform",
	"comb/internal/spec":     "platform",
	"comb/internal/obs":      "platform", // manifests, result hashes, metrics
	"comb/internal/trace":    "platform",

	"comb/internal/runner": "runner",

	"comb/internal/sweep":    "sweep",
	"comb/internal/stats":    "sweep",
	"comb/internal/strategy": "sweep",

	"comb/internal/serve": "serve",
}

// cpuBuckets are the cpu.* metrics: the layers, the Go runtime's
// scheduler and GC, everything else, and comb packages with no layer.
var cpuBuckets = []string{
	"sim", "cluster", "transport", "mpi", "method", "platform", "runner", "sweep", "serve",
	"rt_sched", "rt_gc", "other", "unmapped",
}

// gcPrefixes mark a stack as allocation or garbage collection.
var gcPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.greyobject", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*mheap)", "runtime.(*mspan)", "runtime.(*mcentral)", "runtime.(*mcache)",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*scavengerState)",
}

// schedFuncs mark a stack as goroutine scheduling and handoff.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.goexit0": true, "runtime.newproc": true, "runtime.newproc1": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.execute": true, "runtime.mcall": true, "runtime.gosched_m": true,
	"runtime.goschedImpl": true, "runtime.coroswitch": true, "runtime.coroswitch_m": true,
	"runtime.futexsleep": true, "runtime.futexwakeup": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.stealWork": true, "runtime.runqgrab": true,
	"runtime.handoffp": true, "runtime.resetspinning": true, "runtime.sysmon": true,
}

// bucketOf assigns one sample's stack (leaf first) to a cpu bucket.  GC
// wins over scheduling, which wins over the leaf-most comb frame, so
// allocation and handoff cost is charged to the runtime, not the caller.
func bucketOf(stack []string) (bucket, unmappedPkg string) {
	for _, fn := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "rt_gc", ""
			}
		}
	}
	for _, fn := range stack {
		if schedFuncs[fn] {
			return "rt_sched", ""
		}
	}
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if !strings.HasPrefix(pkg, "comb/internal/") {
			continue
		}
		if l, ok := layerOf[pkg]; ok {
			return l, ""
		}
		return "unmapped", pkg
	}
	return "other", ""
}

// pkgOf returns the import path of a symbol such as
// "comb/internal/sim.(*Env).run" or "comb/internal/method.DecodeJSON[...]".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
