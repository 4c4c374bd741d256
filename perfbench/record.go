package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// newRecord describes the run and the machine it ran on.
func newRecord(workload string, seed int64, budget time.Duration, traced bool) *Record {
	r := &Record{
		Workload: workload, Seed: seed, Seconds: budget.Seconds(), Traced: traced,
		Commit: "unknown", GoVersion: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Started: time.Now().UTC(), Samples: map[string]int{}, TailPercentile: map[string]float64{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					r.Commit += "+dirty"
				}
			}
		}
	}
	// The benchmark never sets these; a record shows them when the
	// environment did, because they change what is measured.
	for _, k := range []string{"GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS"} {
		if v, ok := os.LookupEnv(k); ok {
			if r.Env == nil {
				r.Env = map[string]string{}
			}
			r.Env[k] = v
		}
	}
	return r
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}
