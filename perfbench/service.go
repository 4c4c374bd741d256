package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pnp"
	"pnp/internal/obs/tracing"
	"pnp/internal/verifyd/client"
)

// Request classes of the service mix and their shares.
const (
	classHit      = "hit"
	classReformat = "reformat"
	classEdit     = "edit"
	classCold     = "cold"
	classSweep    = "sweep"
	classPrime    = "prime" // set-up submissions of the base designs
)

// classBlock fixes the mix's shares exactly: each client draws its
// classes as seeded permutations of this block of twenty, so every run
// and every seed sends the same proportions.
var classBlock = []string{
	classHit, classHit, classHit, classHit, classHit, classHit, classHit, classHit, classHit, classHit,
	classReformat, classReformat,
	classEdit, classEdit, classEdit, classEdit, classEdit,
	classCold, classCold,
	classSweep,
}

// doc is one submitted design text.
type doc struct {
	adl   string
	files map[string]string
	key   string // golden key
}

// program is one client's copy of a component file: the set of
// connector compositions already compiled against it decides which
// edits still compile exactly one module.
type program struct {
	file  string
	tag   string
	bases []*Base
	used  map[string]bool
}

// Request is one generated service request.
type Request struct {
	Class string
	Doc   doc
	Sweep *client.SweepSpec
	Cells int // expected sweep cells
}

// clientGen generates one client's request stream. Each client owns its
// component copies (tagged comments), so the two clients' streams never
// touch each other's cache entries and every class is decided by the
// client's own history, whatever the interleaving.
//
// The cost of the mix must not depend on the seed, and a latency median
// must fall inside one mode of its class rather than on the edge between
// two. So every edit and cold submission goes to the broken bridge (its
// exit edits all store 4.3k-4.9k states; with the small designs mixed
// in, the median edit sat between them and the bridge and jumped from
// run to run), and every sweep has the same shape over a component copy
// of its own (see sweep). Hits and reformats resubmit one of the
// client's recentDocs latest documents, and edits go to the latest copy
// of the bridge's component, so the working set stays inside the
// service's 1024-entry caches and a hit is always a hit.
type clientGen struct {
	r        *rand.Rand
	id       int
	session  int
	history  []doc
	programs []*program
	reforms  int
	sweeps   int
	classes  *cycle
	// chans is the run's seeded order of sweep channels.
	chans []int
}

// recentDocs is how far back hits and reformats reach.
const recentDocs = 40

// EditBase is the design every edit and cold submission changes.
var EditBase = &Bases[3]

// cycle hands out 0..n-1 in seeded permutations, one after another.
type cycle struct {
	r     *rand.Rand
	n     int
	order []int
}

func (c *cycle) next() int {
	if len(c.order) == 0 {
		c.order = c.r.Perm(c.n)
	}
	i := c.order[0]
	c.order = c.order[1:]
	return i
}

// newClientGen returns client id's stream in the given session (one
// pnpd instance).
func newClientGen(seed int64, session, id int) *clientGen {
	r := newRand(seed, fmt.Sprintf("service-session-%d-client-%d", session, id))
	g := &clientGen{r: r, id: id, session: session, classes: &cycle{r: r, n: len(classBlock)},
		chans: newRand(seed, "sweep-channels").Perm(len(sweepChannels))}
	byFile := map[string]*program{}
	for i := range Bases {
		b := &Bases[i]
		p := byFile[b.File]
		if p == nil {
			p = &program{file: b.File, tag: fmt.Sprintf("client %d", id), used: map[string]bool{}}
			byFile[b.File] = p
			g.programs = append(g.programs, p)
		}
		p.bases = append(p.bases, b)
		for _, c := range b.Default {
			p.used[c.String()] = true
		}
	}
	return g
}

func (g *clientGen) docFor(v Variant, p *program, note string) doc {
	return doc{adl: v.ADL(note), files: map[string]string{v.Base.File: ComponentText(v.Base, p.tag)}, key: v.Key()}
}

// Prime returns the client's base designs, submitted during set-up so
// the mix starts with designs to resubmit and edit.
func (g *clientGen) Prime() []doc {
	var out []doc
	for _, p := range g.programs {
		for _, b := range p.bases {
			d := g.docFor(Variant{Base: b, Assign: b.Default}, p, "")
			out = append(out, d)
			g.history = append(g.history, d)
		}
	}
	return out
}

func (g *clientGen) recent() doc {
	n := min(len(g.history), recentDocs)
	return g.history[len(g.history)-n+g.r.Intn(n)]
}

// Next draws the client's next request.
func (g *clientGen) Next() Request {
	switch classBlock[g.classes.next()] {
	case classHit:
		return Request{Class: classHit, Doc: g.recent()}
	case classReformat:
		d := g.recent()
		g.reforms++
		d.adl = fmt.Sprintf("# reformatted %d by client %d\n\n", g.reforms, g.id) + strings.ReplaceAll(d.adl, "    ", "\t")
		g.history = append(g.history, d)
		return Request{Class: classReformat, Doc: d}
	case classEdit:
		if req, ok := g.edit(); ok {
			return req
		}
		return g.cold()
	case classCold:
		return g.cold()
	}
	return g.sweep()
}

// edit changes one editable connector of EditBase to a composition not
// yet compiled against the client's latest copy of its component file.
func (g *clientGen) edit() (Request, bool) {
	b := EditBase
	var p *program
	for i := len(g.programs) - 1; i >= 0 && p == nil; i-- {
		if g.programs[i].file == b.File {
			p = g.programs[i]
		}
	}
	var fresh []Conn
	for _, c := range Alphabet() {
		if !p.used[c.String()] {
			fresh = append(fresh, c)
		}
	}
	if len(fresh) == 0 {
		return Request{}, false
	}
	c := fresh[g.r.Intn(len(fresh))]
	p.used[c.String()] = true
	a := append([]Conn(nil), b.Default...)
	ed := b.editable()
	a[ed[g.r.Intn(len(ed))]] = c
	d := g.docFor(Variant{Base: b, Assign: a}, p, "")
	g.history = append(g.history, d)
	return Request{Class: classEdit, Doc: d}, true
}

// cold submits EditBase against a component file the server has not
// seen: a new copy of its model.
func (g *clientGen) cold() Request {
	b := EditBase
	p := &program{file: b.File, tag: fmt.Sprintf("client %d copy %d", g.id, len(g.programs)), bases: []*Base{b}, used: map[string]bool{}}
	for _, c := range b.Default {
		p.used[c.String()] = true
	}
	g.programs = append(g.programs, p)
	d := g.docFor(Variant{Base: b, Assign: b.Default}, p, "")
	g.history = append(g.history, d)
	return Request{Class: classCold, Doc: d}
}

// Sweep sub-matrices: every send and receive port with one channel, ten
// cells of the producer/consumer design.
var (
	sweepSends    = []string{"syn-blocking", "syn-checking", "asyn-blocking", "asyn-checking", "asyn-nonblocking"}
	sweepChannels = []string{"single-slot", "fifo(1)", "fifo(2)", "priority(2)", "dropping(2)", "lossy(1)"}
	sweepRecvs    = []string{"blocking", "nonblocking"}
)

// sweep sweeps the producer/consumer design's pipe over every send and
// receive port and one channel, in a seeded cell order. Each sweep
// composes a component copy of its own, as a designer sweeps again after
// changing the model, so every cell is compiled and searched: a sweep
// that reused earlier cells ran several times faster than one that did
// not, and the share of such sweeps decided the median. The channel
// takes turns in the run's seeded order, client 1 half a turn behind
// client 0 and each session half a turn on, so the channels (whose
// cells store 0.8-1.4x the average) come equally often in every run.
func (g *clientGen) sweep() Request {
	ch := sweepChannels[g.chans[(3*(g.session+g.id)+g.sweeps)%len(g.chans)]]
	g.sweeps++
	perm := func(from []string) []string {
		out := make([]string, len(from))
		for i, k := range g.r.Perm(len(from)) {
			out[i] = from[k]
		}
		return out
	}
	tag := fmt.Sprintf("client %d sweep %d", g.id, g.sweeps)
	spec := &client.SweepSpec{
		Name:       "mix",
		Base:       Variant{Base: &SweepBase, Assign: SweepBase.Default}.ADL(""),
		Components: map[string]string{SweepBase.File: ComponentText(&SweepBase, tag)},
		Connector:  SweepBase.Conns[0],
		Sends:      perm(sweepSends),
		Channels:   []string{ch},
		Recvs:      perm(sweepRecvs),
	}
	return Request{Class: classSweep, Sweep: spec, Cells: len(sweepSends) * len(sweepRecvs)}
}

// sample is one completed request.
type sample struct {
	class    string
	ms       float64
	submitMS float64
	traceID  string
	job      *client.Job
	cells    []client.SweepCell
}

// countingTransport counts HTTP round trips that the client treats as
// transient (5xx or transport errors) and would retry.
type countingTransport struct {
	base      http.RoundTripper
	transient atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil || resp.StatusCode >= 500 {
		t.transient.Add(1)
	}
	return resp, err
}

// service is one in-process pnpd under httptest.
type service struct {
	svc  *pnp.Service
	hs   *httptest.Server
	dir  string
	reg  *pnp.MetricsRegistry
	tr   *countingTransport
	clis []*client.Client
	gens []*clientGen
}

const serviceClients = 2

// startService is the service-mix set-up: a pnpd on an httptest
// listener, two typed clients, and each client's base designs verified
// once. Each session (instance) has its own client streams.
//
// The measured service is memory-only. A data directory would have to
// live in the checkout, on disk, and the journal's two or three fsyncs
// per job would then be about half of a hit's latency and most of its
// run-to-run spread: the benchmark would time the disk. durable starts
// the crash-safe variant instead (journal and artifact disk tier under
// .bench_build), which the traced run uses to measure the fsync alone.
func startService(ctx context.Context, seed int64, session int, g Golden, acct *accounting, rec *tracing.Recorder, durable bool) (*service, error) {
	s := &service{reg: pnp.NewMetricsRegistry()}
	cfg := pnp.VerifyServerConfig{Registry: s.reg, Tracer: rec}
	if durable {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(buildDir, "pnpd-data-")
		if err != nil {
			return nil, err
		}
		s.dir, cfg.DataDir = dir, dir
	}
	var err error
	s.svc, err = pnp.Serve(pnp.ServeOptions{Verify: cfg})
	if err != nil {
		if s.dir != "" {
			os.RemoveAll(s.dir)
		}
		return nil, err
	}
	s.hs = httptest.NewServer(s.svc.Handler())
	s.tr = &countingTransport{base: s.hs.Client().Transport}
	hc := &http.Client{Transport: s.tr}
	for c := 0; c < serviceClients; c++ {
		s.clis = append(s.clis, client.New(s.hs.URL, client.WithHTTPClient(hc)))
		gen := newClientGen(seed, session, c)
		s.gens = append(s.gens, gen)
		for _, d := range gen.Prime() {
			if _, err := s.do(ctx, c, Request{Class: classPrime, Doc: d}, g, acct); err != nil {
				s.stop()
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Close()
	_ = s.svc.Shutdown(ctx) // drain errors only mean a job outlived the timeout; the directory goes anyway
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// do sends one request on client c and waits for its verdict, checking
// it against the golden table and its class.
func (s *service) do(ctx context.Context, c int, req Request, g Golden, acct *accounting) (sample, error) {
	cli := s.clis[c]
	smp := sample{class: req.Class}
	acct.attempt()
	t0 := time.Now()
	if req.Sweep != nil {
		st, err := cli.SubmitSweep(ctx, *req.Sweep)
		if err != nil {
			acct.fail("sweep submit: %v", err)
			return smp, err
		}
		smp.submitMS = msSince(t0)
		var cells []client.SweepCell
		final, err := cli.StreamSweep(ctx, st.ID, func(cell client.SweepCell) { cells = append(cells, cell) })
		smp.ms = msSince(t0)
		smp.traceID = st.TraceID
		if err != nil {
			acct.fail("sweep stream: %v", err)
			return smp, err
		}
		if final.Result != nil && len(cells) == 0 {
			cells = final.Result.Cells
		}
		smp.cells = cells
		checkSweep(req, cells, g, acct)
		return smp, nil
	}
	job, err := cli.Submit(ctx, client.JobRequest{ADL: req.Doc.adl, Components: req.Doc.files})
	if err != nil {
		acct.fail("%s submit: %v", req.Class, err)
		return smp, err
	}
	smp.submitMS = msSince(t0)
	if job.State != "done" {
		job, err = cli.Wait(ctx, job.ID)
		if err != nil {
			acct.fail("%s wait: %v", req.Class, err)
			return smp, err
		}
	}
	smp.ms = msSince(t0)
	smp.job = job
	smp.traceID = job.TraceID
	checkJob(req, job, g, acct)
	return smp, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// checkJob holds a job document to its golden row and to its class: a
// hit or reformat must not search or compile; an edit must search and
// compile exactly one module; a cold submission must search.
func checkJob(req Request, job *client.Job, g Golden, acct *accounting) {
	if job.Report == nil {
		acct.fail("%s %s: no report (%s)", req.Class, req.Doc.key, job.Err)
		return
	}
	rows := make([]PropRow, 0, len(job.Report.Properties))
	for _, p := range job.Report.Properties {
		rows = append(rows, PropRow{Name: p.Name, Verdict: p.Verdict, States: p.States})
	}
	if err := g.Check(req.Doc.key, rows); err != nil {
		acct.fail("%s: %v", req.Class, err)
		return
	}
	switch req.Class {
	case classHit, classReformat:
		if job.CacheMisses != 0 || job.ModulesCompiled != 0 {
			acct.fail("%s %s: searched %d properties, compiled %d modules", req.Class, req.Doc.key, job.CacheMisses, job.ModulesCompiled)
		}
	case classEdit:
		if job.CacheMisses == 0 || job.ModulesCompiled != 1 {
			acct.fail("edit %s: searched %d properties, compiled %d modules (want 1)", req.Doc.key, job.CacheMisses, job.ModulesCompiled)
		}
	case classCold:
		if job.CacheMisses == 0 || job.ModulesCompiled < 2 {
			acct.fail("cold %s: searched %d properties, compiled %d modules", req.Doc.key, job.CacheMisses, job.ModulesCompiled)
		}
	}
}

// cellToken spells a sweep cell's channel as an ADL token.
func cellToken(c client.SweepCell) string {
	if c.Size > 0 && !strings.Contains(c.Channel, "(") {
		return fmt.Sprintf("%s(%d)", c.Channel, c.Size)
	}
	return c.Channel
}

func checkSweep(req Request, cells []client.SweepCell, g Golden, acct *accounting) {
	acct.add(len(cells)) // each cell is a verdict checked on its own
	if len(cells) != req.Cells {
		acct.fail("sweep: %d cells, want %d", len(cells), req.Cells)
	}
	for _, c := range cells {
		v := Variant{Base: &SweepBase, Assign: []Conn{{c.Send, cellToken(c), c.Recv}}}
		rows := make([]PropRow, 0, len(c.Properties))
		for _, p := range c.Properties {
			rows = append(rows, PropRow{Name: p.Name, Verdict: p.Verdict, States: p.States})
		}
		if c.Err != "" {
			acct.fail("sweep cell %s: %s", v.Key(), c.Err)
			continue
		}
		if err := g.Check(v.Key(), rows); err != nil {
			acct.fail("sweep cell: %v", err)
		}
	}
}

// serviceResult is what one service-mix phase measured.
type serviceResult struct {
	samples []sample
	elapsed time.Duration
	alloc   uint64
	gcCPU   float64
	cpu     float64
	retries int64
}

func (r *serviceResult) add(o serviceResult) {
	r.samples = append(r.samples, o.samples...)
	r.elapsed += o.elapsed
	r.alloc += o.alloc
	r.gcCPU += o.gcCPU
	r.cpu += o.cpu
	r.retries += o.retries
}

// runService drives the closed loop: each client sends its next request
// when the previous verdict is back, for the given size.
func (s *service) run(ctx context.Context, sz size, g Golden, acct *accounting, rec *tracing.Recorder) serviceResult {
	var out serviceResult
	var mu sync.Mutex
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPU()
	retries0 := s.tr.transient.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range s.clis {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; sz.more(start, n); n++ {
				req := s.gens[c].Next()
				rctx, span := rec.StartSpan(ctx, "client.request", tracing.A("class", req.Class))
				smp, err := s.do(rctx, c, req, g, acct)
				span.End()
				if err != nil {
					continue
				}
				mu.Lock()
				out.samples = append(out.samples, smp)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	gc1, cpu1 := gcCPU()
	out.alloc = after.TotalAlloc - before.TotalAlloc
	out.gcCPU, out.cpu = gc1-gc0, cpu1-cpu0
	out.retries = s.tr.transient.Load() - retries0
	return out
}

// fsyncMeanMS reads the journal fsync histogram from GET /metrics.
func (s *service) fsyncMeanMS() float64 {
	resp, err := http.Get(s.hs.URL + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var total, count float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "verifyd_journal_fsync_seconds_sum":
			total = v
		case "verifyd_journal_fsync_seconds_count":
			count = v
		}
	}
	return ratio(total, count) * 1000
}

// buildDir holds everything the benchmark writes, inside the checkout.
const buildDir = ".bench_build"
