package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machine identifies where and from what a report was measured, so a
// BENCH_*.json row can be compared only with rows from the same setup.
type machine struct {
	CPUModel  string `json:"cpu_model"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

// newReport starts a report for one bench mode, stamped with the machine.
func newReport(benchmark string) report {
	return report{
		Benchmark: benchmark,
		GoMaxProc: runtime.GOMAXPROCS(0),
		Machine: machine{
			CPUModel:  cpuModel(),
			NProc:     runtime.NumCPU(),
			GoVersion: runtime.Version(),
			Commit:    gitCommit(),
		},
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo ("unknown"
// where there is none).
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

// gitCommit is `git rev-parse HEAD` of the working directory, suffixed
// "+dirty" when tracked files differ from it, or "unknown" outside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(strings.TrimSpace(string(st))) > 0 {
		rev += "+dirty"
	}
	return rev
}
