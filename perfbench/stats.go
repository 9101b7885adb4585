package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// quantile returns the exact q-quantile of xs by the nearest-rank rule: the
// smallest sample with at least q·n samples at or below it. It never
// interpolates, so the result is always one of the samples. xs is sorted in
// place; quantile of an empty slice is 0.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	// The epsilon keeps exact ranks exact: 0.99*1000 is 990.0000000000001.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// cpuNow is the process's CPU time so far, user and system, all threads,
// in seconds. Unlike wall time it does not grow while the process waits for
// a CPU that another tenant of the host holds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stamp identifies the machine and build a result was measured on.
type stamp struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
	Commit     string
}

func machineStamp() stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git revision the binary was built from, as the go command
// stamped it (git rev-parse HEAD of the checkout, "+dirty" when the tree had
// local changes), or "unknown" outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
