// Command perfbench is the repository's benchmark. It drives three
// workloads that generate their inputs from a seed, checks every
// verdict, state count and message against known answers, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload bridge-verify --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare parent.jsonl change.jsonl
//
// See perfbench/README.md for the workloads, metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"pnp/internal/obs/tracing"
)

// Workload names.
const (
	wlBridge  = "bridge-verify"
	wlService = "service-mix"
	wlPipe    = "runtime-pipe"
)

var workloads = []string{wlBridge, wlService, wlPipe}

func main() {
	workload := flag.String("workload", "", "workload: bridge-verify, service-mix or runtime-pipe")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds of the named workload")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	golden := flag.String("golden", "", "rebuild the golden table into this file and exit")
	compare := flag.Bool("compare", false, "compare two record files given as arguments (parent, change)")
	flag.Parse()

	switch {
	case *golden != "":
		if err := writeGoldenFile(*golden); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two record files: parent and change"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: --workload {%s} --seed N --seconds S --trace {0|1}", strings.Join(workloads, "|")))
	}
	g, err := LoadGolden()
	if err != nil {
		fatal(err)
	}
	res, rec := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, g)
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Record *Record `json:"record"`
	}{rec})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// accounting counts operations attempted and failed across goroutines
// and keeps the first failure messages.
type accounting struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (a *accounting) attempt() { a.add(1) }

func (a *accounting) add(n int) {
	a.mu.Lock()
	a.attempted += n
	a.mu.Unlock()
}

func (a *accounting) fail(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failed++
	if len(a.msgs) < 20 {
		a.msgs = append(a.msgs, fmt.Sprintf(format, args...))
	}
}

// gcCPU returns the process's cumulative GC CPU seconds and total CPU
// seconds, as the runtime estimates them.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	fmt.Sscan(string(b), &size, &resident)
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeak samples the resident set size while the named workload's
// slices run, so the peak is the workload's own although other paths
// run between them. No path keeps state across slices and each slice
// starts after the heap is returned to the OS; what the runtime still
// holds then, above the level before the first named slice, is
// subtracted.
type rssPeak struct {
	max, first, held float64
	started          bool
	stop, done       chan struct{}
}

const rssEvery = 10 * time.Millisecond

func (r *rssPeak) start() {
	now := rssMB()
	if !r.started {
		r.first, r.started = now, true
	}
	r.held = max(0, now-r.first)
	r.stop, r.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			r.max = max(r.max, rssMB()-r.held)
			select {
			case <-r.stop:
				r.max = max(r.max, rssMB()-r.held)
				return
			case <-t.C:
			}
		}
	}()
}

// end stops the sampler and waits for it, which orders its writes to
// max before the caller reads it.
func (r *rssPeak) end() {
	close(r.stop)
	<-r.done
}

// phases holds what each path measured in one run.
type phases struct {
	bridge  bridgeResult
	service serviceResult
	pipe    pipeResult
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is their median.
const setupRepeats = 9

// Every run reports every end-to-end metric, so besides the workload it
// names (measured for --seconds) it runs the two other paths at fixed
// sizes: one bridge round, probeRequests per service client and
// probePasses per pipe composition. Fixed counts keep those samples, and
// the percentile a tail is read at, the same in every run.
//
// The paths take turns in slices, the named one first in every turn:
// half a bridge round, a quarter of the service or pipe share. The
// machine has fast and slow stretches of several seconds; taking turns
// spreads every path over the whole run instead of one stretch of it.
const (
	probeRequests = 360
	probePasses   = 8
	slices        = 4
)

// size bounds one slice of a path: by time for the named workload, by
// an operation count for the others.
type size struct {
	dur time.Duration
	n   int // requests per client or passes per composition
}

// more reports whether a slice that started at start and has done ops
// operations goes on. Every slice does at least one.
func (s size) more(start time.Time, ops int) bool {
	if ops == 0 {
		return true
	}
	if s.n > 0 {
		return ops < s.n
	}
	return time.Since(start) < s.dur
}

// schedule tracks one path's progress through a run.
type schedule struct {
	path   string
	named  bool
	budget time.Duration // the named path's share
	used   time.Duration
	ops    int // bridge halves, requests per client, or pipe passes
	// sessions counts the service path's pnpd instances.
	sessions int
}

// done reports whether the path has had its share. A named bridge
// always finishes the round it started.
func (s *schedule) done() bool {
	switch {
	case s.path == wlBridge && s.named:
		return s.used >= s.budget && s.ops > 0 && s.ops%2 == 0
	case s.path == wlBridge:
		return s.ops == 2
	case s.named:
		return s.used >= s.budget
	case s.path == wlService:
		return s.ops == probeRequests
	default:
		return s.ops == probePasses
	}
}

// sliceSize is the size of the path's next service or pipe slice.
func (s *schedule) sliceSize() size {
	if s.named {
		return size{dur: s.budget / slices}
	}
	if s.path == wlService {
		return size{n: probeRequests / slices}
	}
	return size{n: probePasses / slices}
}

// runPaths runs every path in turns and returns what each measured and
// the named workload's peak resident set. svc is the named service's
// set-up instance, or nil; any other service instance is started here,
// untimed.
func runPaths(ctx context.Context, workload string, seed int64, budget time.Duration, svc *service, g Golden, acct *accounting, rec *tracing.Recorder) (phases, float64) {
	out := phases{pipe: pipeResult{rates: map[string][]float64{}, sendUS: map[string][]float64{},
		delivered: map[string]int{}, sent: map[string]int{}}}
	scheds := []*schedule{{path: workload, named: true, budget: budget}}
	for _, w := range workloads {
		if w != workload {
			scheds = append(scheds, &schedule{path: w})
		}
	}
	var peak rssPeak
	for busy := true; busy; {
		busy = false
		for _, s := range scheds {
			if s.done() {
				continue
			}
			busy = true
			if s.path == wlService {
				// Every slice is a session of its own: a fresh pnpd whose
				// clients start from their base designs, stopped at the
				// end of the slice, so no path holds memory across
				// another's slice. The named workload's first session is
				// its set-up instance.
				if svc == nil {
					var err error
					if svc, err = startService(ctx, seed, s.sessions, g, acct, rec, false); err != nil {
						acct.fail("service set-up: %v", err)
						s.ops, s.used = probeRequests, budget // give up on the path
						continue
					}
				}
				s.sessions++
			}
			settle()
			if s.named {
				peak.start()
			}
			t0 := time.Now()
			switch s.path {
			case wlBridge:
				out.bridge.add(runBridgeHalf(ctx, seed, s.ops, g, acct, rec))
				s.ops++
			case wlService:
				sz := s.sliceSize()
				out.service.add(svc.run(ctx, sz, g, acct, rec))
				s.ops += sz.n
				svc.stop()
				svc = nil
			case wlPipe:
				sz := s.sliceSize()
				r := runPipe(ctx, seed, s.ops, sz, acct, rec)
				out.pipe.add(r)
				s.ops += r.passes
			}
			s.used += time.Since(t0)
			if s.named {
				peak.end()
			}
		}
	}
	return out, peak.max
}

// run executes one benchmark run.
func run(workload string, seed int64, budget time.Duration, traced bool, g Golden) (Result, *Record) {
	ctx := context.Background()
	acct := &accounting{}
	rec := newRecord(workload, seed, budget, traced)

	// Set-up, repeated; the last instance is the one measured.
	var setups []float64
	var svc *service
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s := setupWorkload(ctx, workload, seed, g, acct)
		setups = append(setups, time.Since(t0).Seconds())
		if svc != nil {
			svc.stop()
		}
		svc = s
	}
	untraced, peak := runPaths(ctx, workload, seed, budget, svc, g, acct, nil)

	res := Result{Metrics: map[string]Metric{}}
	if traced {
		// The traced pass runs the same inputs again with spans on; its
		// ratio to the untraced pass is the tracing overhead.
		lay := newLayers()
		tracedP, _ := runPaths(ctx, workload, seed, budget, nil, g, acct, lay.rec)
		settle()
		lay.probe(seed, g, acct)
		lay.collect(untraced, tracedP, rec)
		res.Metrics = lay.metrics
	} else {
		endToEnd(res.Metrics, untraced, rec)
		res.Metrics["setup_s"] = Metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = Metric{peak, "MB"}
	}
	rec.Samples["setup_s"] = len(setups)
	res.Attempted, res.Failed = acct.attempted, acct.failed
	res.Correct = acct.failed == 0
	rec.Failures = acct.msgs
	rec.Attempted, rec.Failed = res.Attempted, res.Failed
	rec.Metrics = res.Metrics
	return res, rec
}

// settle collects the previous slice's garbage and returns it to the
// OS, so each slice starts from the same heap whatever ran before it.
func settle() { debug.FreeOSMemory() }

// setupWorkload prepares one instance of a workload: for the service,
// a running pnpd with its clients' base designs verified; for the
// bridge, one warm-up counterexample search; for the pipe, one pass
// through every composition.
func setupWorkload(ctx context.Context, workload string, seed int64, g Golden, acct *accounting) *service {
	switch workload {
	case wlService:
		s, err := startService(ctx, seed, 0, g, acct, nil, false)
		if err != nil {
			acct.fail("service set-up: %v", err)
			return nil
		}
		return s
	case wlBridge:
		rd := GenBridgeRound(seed, 0)
		verifyBridge(ctx, rd.Unsafe[0], g, acct, nil)
	case wlPipe:
		for _, c := range Compositions {
			runPass(ctx, c, seed, acct, nil, false)
		}
	}
	return nil
}

// endToEnd fills the end-to-end metrics from the untraced phases.
func endToEnd(m map[string]Metric, p phases, rec *Record) {
	put := func(name, unit string, xs []float64, v float64) {
		m[name] = Metric{v, unit}
		rec.Samples[name] = len(xs)
	}
	if b := &p.bridge; len(b.safeS) > 0 {
		rounds := b.roundS()
		put("verify_s", "s", rounds, median(rounds))
		put("cex_ms", "ms", b.cexMS, median(b.cexMS))
	}
	if s := &p.service; len(s.samples) > 0 {
		by := map[string][]float64{}
		var sweepRates []float64 // cells per second of each sweep
		for _, smp := range s.samples {
			by[smp.class] = append(by[smp.class], smp.ms)
			if smp.class == classSweep {
				sweepRates = append(sweepRates, ratio(float64(len(smp.cells)), smp.ms/1000))
			}
		}
		put("jobs_per_s", "req/s", nil, float64(len(s.samples))/s.elapsed.Seconds())
		rec.Samples["jobs_per_s"] = len(s.samples)
		put("hit_p50_ms", "ms", by[classHit], median(by[classHit]))
		put("reformat_p50_ms", "ms", by[classReformat], median(by[classReformat]))
		// The hit tail goes to the record only. A hit runs either alone
		// or beside a search on two cores; its p95 falls on the edge
		// between those two modes, and its spread between runs (0.2-0.5
		// of the median) passes any bound a metric may have.
		pc, v := tail(by[classHit])
		rec.Unbounded = map[string]Metric{"hit_tail_ms": {v, "ms"}}
		rec.Samples["hit_tail_ms"] = len(by[classHit])
		rec.TailPercentile["hit_tail_ms"] = pc
		put("edit_p50_ms", "ms", by[classEdit], median(by[classEdit]))
		pc, v = tail(by[classEdit])
		put("edit_tail_ms", "ms", by[classEdit], v)
		rec.TailPercentile["edit_tail_ms"] = pc
		put("cold_p50_ms", "ms", by[classCold], median(by[classCold]))
		// A sweep whose cells queue behind another client's search is
		// several times slower than one that does not; the median sweep
		// is steadier than total cells over total time.
		put("sweep_cells_per_s", "cells/s", sweepRates, median(sweepRates))
	}
	if pp := &p.pipe; pp.msgs > 0 {
		for _, c := range Compositions {
			put("msgs_per_s."+c.Name, "msgs/s", pp.rates[c.Name], median(pp.rates[c.Name]))
		}
	}
}

// Record is the self-describing run record printed before the result.
type Record struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Traced         bool               `json:"traced"`
	Commit         string             `json:"commit"`
	GoVersion      string             `json:"go_version"`
	CPU            string             `json:"cpu"`
	NProc          int                `json:"nproc"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	Env            map[string]string  `json:"env,omitempty"`
	Started        time.Time          `json:"started"`
	Samples        map[string]int     `json:"samples"`
	TailPercentile map[string]float64 `json:"tail_percentile"`
	Overhead       map[string]float64 `json:"tracing_overhead,omitempty"`
	// Unbounded holds figures measured but left out of the bounded
	// metrics because they do not repeat closely enough between runs.
	Unbounded map[string]Metric `json:"unbounded,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}
