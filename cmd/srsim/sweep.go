package main

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"sspubsub/internal/scale"
)

// sweep is what `srsim scale` and `srsim failover` share: a list of
// subscriber counts run one after the other through one scale.Config (the
// flags bind to its fields), optionally profiled.
type sweep struct {
	cfg                    scale.Config
	ns                     string
	cpuprofile, memprofile string
}

func sweepFlags(fs *flag.FlagSet) *sweep {
	s := &sweep{}
	fs.StringVar(&s.ns, "ns", "1000,10000,100000", "comma-separated subscriber counts to sweep")
	fs.Int64Var(&s.cfg.Seed, "seed", 1, "random seed (runs are reproducible)")
	fs.IntVar(&s.cfg.Workers, "workers", 0, "lane workers executing the engine (results are identical for every value); 0 = engine default, one per CPU")
	fs.StringVar(&s.cpuprofile, "cpuprofile", "", "write a CPU profile covering the whole sweep to this file")
	fs.StringVar(&s.memprofile, "memprofile", "", "write a heap profile (taken after the sweep) to this file")
	return s
}

// start validates the parsed flags, starts the profiles and returns the
// subscriber counts with the function that finishes the profiles.
func (s *sweep) start(cmd string) (ns []int, stop func()) {
	if s.cfg.Workers < 0 {
		fail("%s: -workers must be >= 0, got %d", cmd, s.cfg.Workers)
	}
	for _, part := range strings.Split(s.ns, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			fail("%s: -ns entries must be positive integers, got %q", cmd, part)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		fail("%s: -ns is empty", cmd)
	}
	stopCPU := startCPUProfile(s.cpuprofile)
	return ns, func() {
		stopCPU()
		writeMemProfile(s.memprofile)
	}
}

// startCPUProfile begins writing a CPU profile to path and returns the
// stop function. An unwritable path or a profiling failure is a usage
// error (exit 2): a sweep that silently measured without the profile the
// operator asked for would waste the whole run.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fail("-cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fail("-cpuprofile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fail("-cpuprofile: %v", err)
		}
	}
}

// writeMemProfile writes an allocs-space heap profile to path (after a GC,
// so the numbers reflect live retention, not garbage). Exit 2 on failure,
// as with startCPUProfile.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail("-memprofile: %v", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		fail("-memprofile: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("-memprofile: %v", err)
	}
}
