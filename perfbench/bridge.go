package main

import (
	"context"
	"runtime"
	"time"

	"pnp/internal/adl"
	"pnp/internal/checker"
	"pnp/internal/obs/tracing"
)

// bridgeResult is what one bridge-verify phase measured.
type bridgeResult struct {
	safeS    []float64 // ADL text → all verdicts, per safe design, in round order
	cexMS    []float64 // ADL text → counterexample, per unsafe design
	propRuns []propRun // every property search (traced phases read them)
}

// propRun is one property search of one design, with its resource
// deltas.
type propRun struct {
	design  BridgeDesign
	name    string
	res     *checker.Result
	alloc   uint64 // bytes allocated during the design's VerifyAll
	mallocs uint64
	gcCPU   float64 // GC CPU seconds during the design's VerifyAll
	cpu     float64 // total CPU seconds during the design's VerifyAll
}

var bridgeFiles = map[string]string{"bridge.pml": component("bridge.pml")}

// verifyBridge is the pnpverify path in-process: adl.Load, then
// VerifyAll on GOMAXPROCS workers with the design's storage. It checks
// every verdict and state count against the golden table.
func verifyBridge(ctx context.Context, d BridgeDesign, g Golden, acct *accounting, rec *tracing.Recorder) (time.Duration, []propRun) {
	src := d.ADL()
	// pnpverify checks each design in a fresh process; collecting the
	// previous design's garbage first (untimed) keeps one design's heap
	// from being paid for by the next.
	runtime.GC()
	var before runtime.MemStats
	gc0, cpu0 := gcCPU()
	runtime.ReadMemStats(&before)
	acct.attempt()
	t0 := time.Now()
	_, lspan := rec.StartSpan(ctx, "adl.Load")
	sys, err := adl.Load(src, mapResolver(bridgeFiles), nil)
	lspan.End()
	if err != nil {
		acct.fail("bridge %s: load: %v", d.Key(), err)
		return time.Since(t0), nil
	}
	opts := checker.Options{Workers: runtime.GOMAXPROCS(0), Storage: checker.StorageOptions{Visited: d.Visited}}
	vctx, vspan := rec.StartSpan(ctx, "adl.VerifyAll")
	if rec != nil {
		opts.Tracer = rec
		opts.Context = vctx // property and checker spans nest under this one
	}
	results := sys.VerifyAll(opts)
	vspan.End()
	elapsed := time.Since(t0)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	gc1, cpu1 := gcCPU()

	if err := g.Check(d.Key(), rowsOf(results)); err != nil {
		acct.fail("bridge: %v", err)
	}
	var runs []propRun
	for name, res := range results {
		runs = append(runs, propRun{
			design: d, name: name, res: res,
			alloc: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs,
			gcCPU: gc1 - gc0, cpu: cpu1 - cpu0,
		})
	}
	return elapsed, runs
}

// cexRepeats is how many times a half searches each of its unsafe
// designs. A search takes about 60 ms, so one pass over them was too few
// samples for a steady median.
const cexRepeats = 4

// runBridgeHalf verifies half k of the seed's round stream: the safe
// design k%2 of round k/2 and then its four unsafe designs, cexRepeats
// times over, as a designer alternates edits and checks.
func runBridgeHalf(ctx context.Context, seed int64, k int, g Golden, acct *accounting, rec *tracing.Recorder) bridgeResult {
	var out bridgeResult
	rd := GenBridgeRound(seed, k/2)
	h := k % 2
	el, runs := verifyBridge(ctx, rd.Safe[h], g, acct, rec)
	out.safeS = append(out.safeS, el.Seconds())
	if rec != nil { // only the traced run reads property runs
		out.propRuns = append(out.propRuns, runs...)
	}
	per := len(rd.Unsafe) / len(rd.Safe)
	for i := 0; i < cexRepeats; i++ {
		for _, u := range rd.Unsafe[h*per : (h+1)*per] {
			el, runs := verifyBridge(ctx, u, g, acct, rec)
			out.cexMS = append(out.cexMS, float64(el)/float64(time.Millisecond))
			if rec != nil {
				out.propRuns = append(out.propRuns, runs...)
			}
		}
	}
	return out
}

func (b *bridgeResult) add(o bridgeResult) {
	b.safeS = append(b.safeS, o.safeS...)
	b.cexMS = append(b.cexMS, o.cexMS...)
	b.propRuns = append(b.propRuns, o.propRuns...)
}

// roundS returns each complete round's time: ADL text → all verdicts of
// its two safe designs.
func (b *bridgeResult) roundS() []float64 {
	var out []float64
	for i := 0; i+1 < len(b.safeS); i += 2 {
		out = append(out, b.safeS[i]+b.safeS[i+1])
	}
	return out
}
