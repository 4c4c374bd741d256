package main

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pnp/internal/adl"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/ltl"
	"pnp/internal/model"
	"pnp/internal/obs/tracing"
	"pnp/internal/pml"
)

// layers gathers the traced run's per-layer metrics. Spans come from
// one flight recorder shared by the benchmark's own spans (around its
// calls into adl, checker, the typed client and pnprt) and the spans
// the program emits (job, compose, queue, run, property:*, checker:*,
// connector:*); the client's traceparent joins each request's spans.
type layers struct {
	rec     *tracing.Recorder
	metrics map[string]Metric
}

// recorderCapacity holds every span of a traced run: a service job
// records about ten, a bridge design a handful, a pipe pass two.
const recorderCapacity = 1 << 17

func newLayers() *layers {
	return &layers{rec: tracing.NewRecorder(recorderCapacity), metrics: map[string]Metric{}}
}

func (l *layers) put(name, unit string, v float64) { l.metrics[name] = Metric{v, unit} }

// e9 is the paper bridge after the E9 repair (quota 1, syn-blocking).
var e9 = BridgeDesign{EnterSend: "syn-blocking", N: 1, Visited: "exact"}

// probe runs the layer probes that need no workload traffic: the
// fixed-frontier model replay, the E9 worker pair, LTL translation, and
// ADL load / PML compile of the service designs, and the journal fsync
// of a crash-safe service.
func (l *layers) probe(seed int64, g Golden, acct *accounting) {
	l.modelReplay(acct)

	// checker.speedup_2w: E9 on one worker, then on two.
	var el [2]float64
	for i, w := range []int{1, 2} {
		sys, err := adl.Load(e9.ADL(), mapResolver(bridgeFiles), nil)
		if err != nil {
			acct.fail("e9: %v", err)
			return
		}
		t0 := time.Now()
		res := sys.VerifyAll(checker.Options{Workers: w})
		el[i] = time.Since(t0).Seconds()
		acct.attempt()
		if err := g.Check(e9.Key(), rowsOf(res)); err != nil {
			acct.fail("e9 at %d workers: %v", w, err)
		}
	}
	l.put("checker.speedup_2w", "x", ratio(el[0], el[1]))

	// ltl.translate_ms: the bridge's LTL property, negated as the
	// checker does before building the Büchi automaton.
	var tr []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		f, err := ltl.Parse("[] oneway")
		if err == nil {
			_, err = ltl.Translate(ltl.Not(f))
		}
		if err != nil {
			acct.fail("ltl: %v", err)
			break
		}
		tr = append(tr, msSince(t0))
	}
	l.put("ltl.translate_ms", "ms", median(tr))

	// adl.load_ms and pml.compile_ms over the service mix's designs:
	// parse and compose, and the PML front end alone.
	var loads, compiles []float64
	for _, v := range AllVariants() {
		files := map[string]string{v.Base.File: component(v.Base.File)}
		t0 := time.Now()
		if _, err := adl.Load(v.ADL(""), mapResolver(files), nil); err != nil {
			acct.fail("adl.Load %s: %v", v.Key(), err)
			continue
		}
		loads = append(loads, msSince(t0))
		t0 = time.Now()
		if _, err := pml.CompileSource(blocks.LibrarySource + "\n" + files[v.Base.File] + "\n"); err != nil {
			acct.fail("pml compile %s: %v", v.Key(), err)
			continue
		}
		compiles = append(compiles, msSince(t0))
	}
	l.put("adl.load_ms", "ms", median(loads))
	l.put("pml.compile_ms", "ms", median(compiles))

	// verifyd.journal_fsync_ms: a crash-safe pnpd under the same mix,
	// read from its /metrics histogram.
	s, err := startService(context.Background(), seed, 0, g, acct, nil, true)
	if err != nil {
		acct.fail("durable service: %v", err)
		return
	}
	s.run(context.Background(), size{n: 40}, g, acct, nil)
	l.put("verifyd.journal_fsync_ms", "ms", s.fsyncMeanMS())
	s.stop()
}

// replayFrontier is how many E9 states the model replay expands.
const replayFrontier = 4096

// modelReplay times successor generation, key encoding and
// fingerprinting over a fixed frontier: the first replayFrontier states
// of E9 in breadth-first order, each expanded several times.
func (l *layers) modelReplay(acct *accounting) {
	sys, err := adl.Load(e9.ADL(), mapResolver(bridgeFiles), nil)
	if err != nil {
		acct.fail("model replay: %v", err)
		return
	}
	m := sys.Builder.System()
	seen := map[string]bool{}
	init := m.InitialState()
	frontier := []*model.State{init}
	seen[init.Key()] = true
	for i := 0; i < len(frontier) && len(frontier) < replayFrontier; i++ {
		for _, tr := range m.Successors(frontier[i]) {
			if k := tr.Next.Key(); !seen[k] && len(frontier) < replayFrontier {
				seen[k] = true
				frontier = append(frontier, tr.Next)
			}
		}
	}
	const reps = 8
	arena := &model.Arena{}
	var out []model.Transition
	expanded := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, st := range frontier {
			out = m.SuccessorsAppend(st, arena, out[:0])
			for _, tr := range out {
				if tr.Next != st {
					arena.Recycle(tr.Next)
				}
			}
			expanded++
		}
	}
	l.put("model.succ_ns_per_state", "ns", float64(time.Since(t0).Nanoseconds())/float64(expanded))

	var buf []byte
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, st := range frontier {
			buf = st.AppendKey(buf[:0])
		}
	}
	l.put("model.key_ns_per_state", "ns", float64(time.Since(t0).Nanoseconds())/float64(reps*len(frontier)))
	var fp uint64
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, st := range frontier {
			fp ^= st.Fingerprint()
		}
	}
	l.put("model.fingerprint_ns_per_state", "ns", float64(time.Since(t0).Nanoseconds())/float64(reps*len(frontier)))
	runtime.KeepAlive(fp)
}

// spanIndex groups the recorder's spans by trace and by parent.
type spanIndex struct {
	byTrace  map[string][]tracing.SpanData
	children map[string][]tracing.SpanData
}

func indexSpans(spans []tracing.SpanData) spanIndex {
	ix := spanIndex{byTrace: map[string][]tracing.SpanData{}, children: map[string][]tracing.SpanData{}}
	for _, s := range spans {
		ix.byTrace[s.TraceID] = append(ix.byTrace[s.TraceID], s)
		if s.Parent != "" {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

func spanMS(s tracing.SpanData) float64 { return float64(s.Duration()) / float64(time.Millisecond) }

// selfMS is a span's duration minus the part its children cover
// (children of one span do not overlap in the program's hierarchy).
func (ix spanIndex) selfMS(s tracing.SpanData) float64 {
	self := spanMS(s)
	for _, c := range ix.children[s.SpanID] {
		self -= spanMS(c)
	}
	return self
}

// collect derives every per-layer metric from the traced phases (and
// the tracing overhead from the untraced ones).
func (l *layers) collect(untraced, traced phases, rec *Record) {
	ix := indexSpans(l.rec.Spans())
	l.collectChecker(&traced.bridge, ix)
	l.collectService(&traced.service, ix)
	l.collectPipe(&traced.pipe)

	rec.Overhead = map[string]float64{}
	over := func(w string, v float64) {
		l.put("tracing.overhead."+w, "ratio", v)
		rec.Overhead[w] = v
	}
	over(wlBridge, ratio(median(traced.bridge.roundS()), median(untraced.bridge.roundS()))-1)
	u := ratio(float64(len(untraced.service.samples)), untraced.service.elapsed.Seconds())
	t := ratio(float64(len(traced.service.samples)), traced.service.elapsed.Seconds())
	over(wlService, ratio(u, t)-1)
	var rs []float64
	for _, c := range Compositions {
		rs = append(rs, ratio(median(untraced.pipe.rates[c.Name]), median(traced.pipe.rates[c.Name])))
	}
	over(wlPipe, median(rs)-1)
	rec.Samples["spans"] = l.rec.Len()
}

func (l *layers) collectChecker(b *bridgeResult, ix spanIndex) {
	var safety, ltlS []float64
	var stored, matched, trans float64
	var searchS float64
	var alloc, mallocs, gcS, cpuS, allStored float64
	visited := map[string][2]float64{}
	for _, r := range b.propRuns {
		st := r.res.Stats
		if r.name == "safety" {
			// Design-level deltas are attached to every property run of
			// the design; count them once, on the safety run.
			alloc += float64(r.alloc)
			mallocs += float64(r.mallocs)
			gcS += r.gcCPU
			cpuS += r.cpu
		}
		allStored += float64(st.StatesStored)
		if !r.res.OK {
			continue // counterexample searches stop early; rates use exhaustive ones
		}
		switch r.name {
		case "safety":
			safety = append(safety, st.Elapsed.Seconds())
			stored += float64(st.StatesStored)
			matched += float64(st.StatesMatched)
			trans += float64(st.Transitions)
			searchS += st.Elapsed.Seconds()
			v := visited[r.design.Visited]
			visited[r.design.Visited] = [2]float64{v[0] + float64(st.VisitedBytes), v[1] + float64(st.StatesStored)}
		default:
			ltlS = append(ltlS, st.Elapsed.Seconds())
		}
	}
	l.put("checker.search_s.safety", "s", median(safety))
	l.put("checker.search_s.ltl", "s", median(ltlS))
	l.put("checker.states_per_s", "states/s", ratio(stored, searchS))
	l.put("checker.transitions_per_s", "1/s", ratio(trans, searchS))
	l.put("checker.stored_ratio", "ratio", ratio(stored, stored+matched))
	l.put("checker.alloc_bytes_per_state", "B", ratio(alloc, allStored))
	l.put("checker.allocs_per_state", "count", ratio(mallocs, allStored))
	l.put("checker.gc_cpu_share", "ratio", ratio(gcS, cpuS))
	for _, mode := range []string{"exact", "collapse"} {
		v := visited[mode]
		l.put("checker.visited_bytes_per_state."+mode, "B", ratio(v[0], v[1]))
	}
	// Frontier sizes from the parallel engine's per-level events.
	var frontiers []float64
	for _, spans := range ix.byTrace {
		for _, s := range spans {
			if !strings.HasPrefix(s.Name, "checker:") {
				continue
			}
			for _, e := range s.Events {
				if e.Name != "level" {
					continue
				}
				for _, a := range e.Attrs {
					if a.Key == "frontier" {
						if f, err := strconv.ParseFloat(a.Value, 64); err == nil {
							frontiers = append(frontiers, f)
						}
					}
				}
			}
		}
	}
	l.put("checker.frontier_p50", "states", median(frontiers))
}

func (l *layers) collectService(s *serviceResult, ix spanIndex) {
	compose := map[string][]float64{}
	var search, queue, runSelf, httpMS, submit []float64
	var jobs, reportHits, propHits, propAll, reused, modules, editCompiled, edits float64
	var cells, deduped, cellHits float64
	for _, smp := range s.samples {
		submit = append(submit, smp.submitMS)
		if smp.class == classSweep {
			for _, c := range smp.cells {
				cells++
				if c.Deduped {
					deduped++
				}
				if c.CacheMisses == 0 {
					cellHits++
				}
			}
			continue
		}
		jobs++
		j := smp.job
		propHits += float64(j.CacheHits)
		propAll += float64(j.CacheHits + j.CacheMisses)
		reused += float64(j.ModulesReused)
		modules += float64(j.ModulesTotal)
		if smp.class == classEdit {
			edits++
			editCompiled += float64(j.ModulesCompiled)
		}
		ran := false
		for _, sp := range ix.byTrace[smp.traceID] {
			switch {
			case sp.Name == "job":
				httpMS = append(httpMS, smp.ms-spanMS(sp))
			case sp.Name == "compose":
				compose[smp.class] = append(compose[smp.class], spanMS(sp))
			case sp.Name == "queue":
				queue = append(queue, spanMS(sp))
			case sp.Name == "run":
				ran = true
				runSelf = append(runSelf, ix.selfMS(sp))
			case strings.HasPrefix(sp.Name, "property:"):
				search = append(search, spanMS(sp))
			}
		}
		if !ran {
			reportHits++
		}
	}
	l.put("checker.search_ms", "ms", median(search))
	for _, c := range []string{classHit, classEdit, classCold} {
		l.put("verifyd.compose_ms."+c, "ms", median(compose[c]))
	}
	l.put("artifact.reuse_ratio", "ratio", ratio(reused, modules))
	l.put("artifact.compiled_per_edit", "count", ratio(editCompiled, edits))
	l.put("client.submit_ms", "ms", median(submit))
	l.put("client.retries", "count", float64(s.retries))
	l.put("verifyd.queue_wait_ms", "ms", median(queue))
	_, qt := tail(queue)
	l.put("verifyd.queue_wait_tail_ms", "ms", qt)
	l.put("verifyd.run_self_ms", "ms", median(runSelf))
	l.put("verifyd.http_ms", "ms", median(httpMS))
	l.put("verifyd.report_hit_ratio", "ratio", ratio(reportHits, jobs))
	l.put("verifyd.property_hit_ratio", "ratio", ratio(propHits, propAll))
	l.put("verifyd.alloc_bytes_per_job", "B", ratio(float64(s.alloc), float64(len(s.samples))))
	l.put("verifyd.gc_cpu_share", "ratio", ratio(s.gcCPU, s.cpu))
	l.put("sweep.dedup_ratio", "ratio", ratio(deduped, cells))
	l.put("sweep.cache_hit_ratio", "ratio", ratio(cellHits, cells))
}

func (l *layers) collectPipe(p *pipeResult) {
	for _, c := range Compositions {
		l.put("pnprt.send_us."+c.Name, "us", median(p.sendUS[c.Name]))
	}
	l.put("pnprt.alloc_bytes_per_msg", "B", ratio(float64(p.alloc), float64(p.msgs)))
	l.put("pnprt.gc_cpu_share", "ratio", ratio(p.gcCPU, p.cpu))
	f := Compositions[3].Name
	l.put("pnprt.delivered_ratio."+f, "ratio", ratio(float64(p.delivered[f]), float64(p.sent[f])))
	l.put("faults.injected."+f, "count", float64(p.injected))
}
