package main

import (
	"context"
	"runtime"
	"time"

	"pnp/internal/blocks"
	"pnp/internal/faults"
	"pnp/internal/obs/tracing"
	"pnp/internal/pnprt"
)

// Composition is one executable connector the runtime-pipe workload
// drives.
type Composition struct {
	Name   string
	Spec   pnprt.Spec
	Faulty bool // runs under the seeded drop+delay plan
}

// Compositions are the runtime-pipe connectors, in run order.
var Compositions = []Composition{
	{"syn-single", pnprt.Spec{Send: blocks.SynBlockingSend, Channel: blocks.SingleSlot, Recv: blocks.BlockingRecv}, false},
	{"asyn-fifo64", pnprt.Spec{Send: blocks.AsynBlockingSend, Channel: blocks.FIFOQueue, Size: 64, Recv: blocks.BlockingRecv}, false},
	{"asyn-priority64", pnprt.Spec{Send: blocks.AsynBlockingSend, Channel: blocks.PriorityQueue, Size: 64, Recv: blocks.BlockingRecv}, false},
	{"faulty-fifo64", pnprt.Spec{Send: blocks.AsynBlockingSend, Channel: blocks.FIFOQueue, Size: 64, Recv: blocks.BlockingRecv}, true},
}

// PipeMsgs is the message count of one pass through a connector.
const PipeMsgs = 20000

const pipeConnName = "pipe"

// FaultPlan is the seeded plan of the faulty composition: 5% of the
// messages dropped in transit, 5% delayed (overtaken by later ones).
func FaultPlan(seed int64) *faults.Plan {
	return &faults.Plan{Seed: uint64(seed), Rules: []faults.Rule{
		{Kind: faults.Drop, Target: pipeConnName, Rate: 0.05},
		{Kind: faults.Delay, Target: pipeConnName, Rate: 0.05},
	}}
}

// predictFaults replays the plan's decisions for n messages: the
// indices that will be dropped and the number of faults injected.
func predictFaults(plan *faults.Plan, n int) (dropped map[int]bool, injected int64) {
	inj := plan.Injector(pipeConnName, nil)
	dropped = map[int]bool{}
	for i := 0; i < n; i++ {
		if d, ok := inj.OnMessage(); ok && d.Kind == faults.Drop {
			dropped[i] = true
		}
	}
	return dropped, inj.Injected()
}

// pipePass is one measured pass of PipeMsgs messages.
type pipePass struct {
	elapsed   time.Duration
	delivered int
	injected  int64
	sendUS    []float64 // per-Send latency, traced passes only
}

// runPass sends PipeMsgs messages from one goroutine to another through
// a fresh connector and checks what arrives: every message in order on
// a reliable connector; exactly the plan's survivors, and exactly the
// plan's fault count, on the faulty one.
func runPass(ctx context.Context, c Composition, seed int64, acct *accounting, rec *tracing.Recorder, timeSends bool) pipePass {
	acct.add(PipeMsgs)
	var opts []pnprt.Option
	var plan *faults.Plan
	if c.Faulty {
		plan = FaultPlan(seed)
		opts = append(opts, pnprt.WithFaults(plan))
	}
	if rec != nil {
		opts = append(opts, pnprt.WithSpans(rec))
	}
	conn, err := pnprt.NewConnector(pipeConnName, c.Spec, opts...)
	if err != nil {
		acct.fail("pipe %s: %v", c.Name, err)
		return pipePass{}
	}
	snd, err1 := conn.NewSender()
	rcv, err2 := conn.NewReceiver()
	if err1 != nil || err2 != nil {
		acct.fail("pipe %s: endpoints: %v %v", c.Name, err1, err2)
		return pipePass{}
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := conn.Start(cctx); err != nil {
		acct.fail("pipe %s: start: %v", c.Name, err)
		return pipePass{}
	}
	defer conn.Stop()

	want := PipeMsgs
	var dropped map[int]bool
	var wantInjected int64
	if plan != nil {
		dropped, wantInjected = predictFaults(plan, PipeMsgs)
		want -= len(dropped)
	}
	var pass pipePass
	if timeSends {
		pass.sendUS = make([]float64, 0, PipeMsgs)
	}
	sendErr := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i < PipeMsgs; i++ {
			t0 := time.Now()
			if _, err := snd.Send(cctx, pnprt.Message{Data: i}); err != nil {
				sendErr <- err
				return
			}
			if timeSends {
				pass.sendUS = append(pass.sendUS, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
		sendErr <- nil
	}()
	seen := make([]bool, PipeMsgs)
	next := 0
	ordered := true
	for k := 0; k < want; k++ {
		_, m, err := rcv.Receive(cctx, pnprt.RecvRequest{})
		if err != nil {
			acct.fail("pipe %s: receive: %v", c.Name, err)
			cancel()
			break
		}
		i, ok := m.Data.(int)
		if !ok || i < 0 || i >= PipeMsgs || seen[i] {
			acct.fail("pipe %s: unexpected message %v", c.Name, m.Data)
			continue
		}
		seen[i] = true
		pass.delivered++
		if i != next {
			ordered = false
		}
		next = i + 1
	}
	pass.elapsed = time.Since(start)
	if err := <-sendErr; err != nil && pass.delivered == want {
		acct.fail("pipe %s: send: %v", c.Name, err)
	}
	if plan == nil {
		if !ordered || pass.delivered != PipeMsgs {
			acct.fail("pipe %s: %d of %d messages delivered, in order %v", c.Name, pass.delivered, PipeMsgs, ordered)
		}
		return pass
	}
	for i := 0; i < PipeMsgs; i++ {
		if seen[i] == dropped[i] {
			acct.fail("pipe %s: message %d delivered=%v, plan drops it=%v", c.Name, i, seen[i], dropped[i])
			break
		}
	}
	pass.injected = conn.FaultsInjected()
	if pass.injected != wantInjected {
		acct.fail("pipe %s: %d faults injected, plan predicts %d", c.Name, pass.injected, wantInjected)
	}
	return pass
}

// pipeResult is what one runtime-pipe phase measured.
type pipeResult struct {
	rates     map[string][]float64 // msgs/s per pass, by composition
	sendUS    map[string][]float64
	delivered map[string]int
	sent      map[string]int
	injected  int64 // faults injected in the run's first faulty pass
	alloc     uint64
	gcCPU     float64
	cpu       float64
	msgs      int
	passes    int // per composition
}

// runPipe makes passes through the compositions in turn, for the size's
// time or its pass count per composition, and reports per-pass rates.
// Taking turns spreads every composition over the whole phase, so a
// slow stretch of the machine does not land on one composition alone.
// first numbers the slice's first pass, so every pass of a run draws its
// own fault plan.
func runPipe(ctx context.Context, seed int64, first int, sz size, acct *accounting, rec *tracing.Recorder) pipeResult {
	out := pipeResult{rates: map[string][]float64{}, sendUS: map[string][]float64{},
		delivered: map[string]int{}, sent: map[string]int{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPU()
	start := time.Now()
	for p := 0; sz.more(start, p); p++ {
		out.passes++
		for _, c := range Compositions {
			cctx, span := rec.StartSpan(ctx, "pnprt.pass", tracing.A("composition", c.Name))
			pass := runPass(cctx, c, seed+int64(first+p), acct, rec, rec != nil)
			span.End()
			if pass.elapsed > 0 {
				out.rates[c.Name] = append(out.rates[c.Name], float64(PipeMsgs)/pass.elapsed.Seconds())
			}
			out.sendUS[c.Name] = append(out.sendUS[c.Name], pass.sendUS...)
			out.delivered[c.Name] += pass.delivered
			out.sent[c.Name] += PipeMsgs
			if c.Faulty && first+p == 0 {
				out.injected = pass.injected
			}
			out.msgs += PipeMsgs
		}
	}
	runtime.ReadMemStats(&after)
	gc1, cpu1 := gcCPU()
	out.alloc = after.TotalAlloc - before.TotalAlloc
	out.gcCPU, out.cpu = gc1-gc0, cpu1-cpu0
	return out
}

func (p *pipeResult) add(o pipeResult) {
	for k, v := range o.rates {
		p.rates[k] = append(p.rates[k], v...)
	}
	for k, v := range o.sendUS {
		p.sendUS[k] = append(p.sendUS[k], v...)
	}
	for k, v := range o.delivered {
		p.delivered[k] += v
	}
	for k, v := range o.sent {
		p.sent[k] += v
	}
	p.injected += o.injected
	p.alloc += o.alloc
	p.gcCPU += o.gcCPU
	p.cpu += o.cpu
	p.msgs += o.msgs
	p.passes += o.passes
}
