package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// fingerprint is one point's simulated statistics: what the simulator
// did, independent of the host.  A change that only makes the simulator
// faster must leave every field of every point unchanged.
type fingerprint struct {
	Hash         string `json:"result_hash"` // runpipe.HashOutcome: method result + hardware counters
	Events       uint64 `json:"events"`      // events executed, summed over the run's environments
	Packets      int64  `json:"packets"`
	WireBytes    int64  `json:"wire_bytes"`
	Msgs         int64  `json:"msgs"` // MPI sends completed
	PayloadBytes int64  `json:"payload_bytes"`
	UserNs       int64  `json:"cpu_user_sim_ns"`
	KernelNs     int64  `json:"cpu_kernel_sim_ns"`
	IntrNs       int64  `json:"cpu_intr_sim_ns"`
}

func (f *fingerprint) add(g fingerprint) {
	f.Events += g.Events
	f.Packets += g.Packets
	f.WireBytes += g.WireBytes
	f.Msgs += g.Msgs
	f.PayloadBytes += g.PayloadBytes
	f.UserNs += g.UserNs
	f.KernelNs += g.KernelNs
	f.IntrNs += g.IntrNs
}

// fields lists the fingerprint's counters by name, for diffing.
func (f fingerprint) fields() map[string]string {
	return map[string]string{
		"result_hash":       f.Hash,
		"events":            fmt.Sprint(f.Events),
		"packets":           fmt.Sprint(f.Packets),
		"wire_bytes":        fmt.Sprint(f.WireBytes),
		"msgs":              fmt.Sprint(f.Msgs),
		"payload_bytes":     fmt.Sprint(f.PayloadBytes),
		"cpu_user_sim_ns":   fmt.Sprint(f.UserNs),
		"cpu_kernel_sim_ns": fmt.Sprint(f.KernelNs),
		"cpu_intr_sim_ns":   fmt.Sprint(f.IntrNs),
	}
}

// diffMain implements "combbench diff OLD NEW": it prints every
// simulated counter that differs between two --out files of traced runs
// and returns 1 if any does, 0 if none, 2 on a usage or read error.
func diffMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: combbench diff OLD.json NEW.json (files written by --trace 1 --out)")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err == nil && len(reps[i].Fingerprint) == 0 {
			err = fmt.Errorf("no fingerprint (write it with --trace 1 --out)")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "combbench diff: %s: %v\n", path, err)
			return 2
		}
	}
	changed := diffFingerprints(reps[0].Fingerprint, reps[1].Fingerprint, w)
	if changed == 0 {
		fmt.Fprintf(w, "no simulated counter changed (%d points)\n", len(reps[0].Fingerprint))
		return 0
	}
	fmt.Fprintf(w, "%d simulated counters changed\n", changed)
	return 1
}

// diffFingerprints writes one line per changed counter, per point in key
// order, and returns how many it wrote.
func diffFingerprints(old, cur map[string]fingerprint, w io.Writer) int {
	keys := map[string]bool{}
	for k := range old {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	n := 0
	for _, k := range sorted {
		o, inOld := old[k]
		c, inCur := cur[k]
		switch {
		case !inOld:
			fmt.Fprintf(w, "%s: only in new\n", k)
			n++
		case !inCur:
			fmt.Fprintf(w, "%s: only in old\n", k)
			n++
		default:
			of, cf := o.fields(), c.fields()
			names := make([]string, 0, len(of))
			for name := range of {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if of[name] != cf[name] {
					fmt.Fprintf(w, "%s: %s %s -> %s\n", k, name, of[name], cf[name])
					n++
				}
			}
		}
	}
	return n
}
