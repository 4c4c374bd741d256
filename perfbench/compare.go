package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode reads: each
// metric's direction and bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readRecords returns the run records in a file of benchmark output
// (the record lines; every other line is ignored).
func readRecords(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Record *Record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Record != nil {
			out = append(out, line.Record)
		}
	}
	return out, sc.Err()
}

// runCompare prints, per workload and metric, both sides' medians and
// quartiles, the share of run pairs the change won, and a verdict by
// the rule of the choosing-metrics guide §8: a gain needs the change to
// win at least 90% of pairs and the medians to differ by more than the
// parent's interquartile spread; a metric whose parent spread exceeds
// its bound is unresolved unless every change run beats every parent
// run; otherwise a median moved past the bound is a change, and any
// other metric is unchanged.
func runCompare(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	if len(parent) == 0 || len(change) == 0 {
		return fmt.Errorf("no run records in %s or %s", parentPath, changePath)
	}
	better := map[string]string{}
	bound := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			better[m.Name], bound[m.Name] = m.Better, m.Bound
		}
		for _, m := range spec.PerLayer {
			better[m.Name] = m.Better
		}
	}
	type key struct{ workload, metric string }
	values := func(rs []*Record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range rs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	pv, cv := values(parent), values(change)
	var keys []key
	for k := range pv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-38s %12s %23s %12s %23s %6s  %s\n",
		"workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "won", "verdict")
	for _, k := range keys {
		p, c := pv[k], cv[k]
		lower := better[k.metric] != "higher"
		b, hasBound := bound[k.metric]
		verdict := compareVerdict(p, c, lower, b, hasBound)
		fmt.Fprintf(w, "%-14s %-38s %12.4g [%10.4g, %10.4g] %12.4g [%10.4g, %10.4g] %5.0f%%  %s\n",
			k.workload, k.metric, median(p), quantile(p, 0.25), quantile(p, 0.75),
			median(c), quantile(c, 0.25), quantile(c, 0.75), 100*pairsWon(p, c, lower), verdict)
	}
	return nil
}

// pairsWon is the share of (parent, change) run pairs, matched in run
// order, in which the change is better; ties count for neither side.
func pairsWon(p, c []float64, lower bool) float64 {
	n := min(len(p), len(c))
	won := 0
	for i := 0; i < n; i++ {
		if (lower && c[i] < p[i]) || (!lower && c[i] > p[i]) {
			won++
		}
	}
	return ratio(float64(won), float64(n))
}

func compareVerdict(p, c []float64, lower bool, bound float64, hasBound bool) string {
	pm, cm := median(p), median(c)
	spread := quantile(p, 0.75) - quantile(p, 0.25)
	delta := (cm - pm) / math.Abs(pm)
	if !lower {
		delta = -delta // positive delta is always "worse"
	}
	allBetter := true
	for _, x := range p {
		for _, y := range c {
			if (lower && y >= x) || (!lower && y <= x) {
				allBetter = false
			}
		}
	}
	if !hasBound {
		if pairsWon(p, c, lower) >= 0.9 && math.Abs(cm-pm) > spread {
			return "better (no bound: per-layer)"
		}
		return fmt.Sprintf("moved %+.1f%% (no bound: per-layer)", -100*delta)
	}
	switch {
	case pairsWon(p, c, lower) >= 0.9 && math.Abs(cm-pm) > spread && delta < 0:
		return "better"
	case spread/math.Abs(pm) > bound && !allBetter:
		return fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.0f%%)", 100*spread/math.Abs(pm), 100*bound)
	case delta > bound:
		return fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", 100*delta, 100*bound)
	case -delta > bound:
		return fmt.Sprintf("changed: better by %.1f%%, short of the 90%% pair rule", -100*delta)
	}
	return "unchanged"
}
