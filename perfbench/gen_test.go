package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
)

// streamBytes renders every input a seed generates: bridge rounds, both
// clients' service streams, and the fault plan with its predictions.
func streamBytes(seed int64) []byte {
	var b bytes.Buffer
	for i := 0; i < 4; i++ {
		rd := GenBridgeRound(seed, i)
		for _, d := range append(rd.Safe, rd.Unsafe...) {
			fmt.Fprintf(&b, "%s %s\n%s", d.Key(), d.Visited, d.ADL())
		}
	}
	writeDoc := func(d doc) {
		b.WriteString(d.key + "\n" + d.adl)
		names := make([]string, 0, len(d.files))
		for n := range d.files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b.WriteString(n + "\n" + d.files[n])
		}
	}
	for c := 0; c < serviceClients; c++ {
		g := newClientGen(seed, 0, c)
		for _, d := range g.Prime() {
			writeDoc(d)
		}
		for k := 0; k < 400; k++ {
			r := g.Next()
			b.WriteString(r.Class + "\n")
			if r.Sweep != nil {
				js, _ := json.Marshal(r.Sweep)
				b.Write(js)
				continue
			}
			writeDoc(r.Doc)
		}
	}
	plan := FaultPlan(seed)
	dropped, injected := predictFaults(plan, PipeMsgs)
	idx := make([]int, 0, len(dropped))
	for i := range dropped {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	fmt.Fprintf(&b, "%s %d %v\n", plan.Canonical(), injected, idx)
	return b.Bytes()
}

func TestGeneratorIsByteDeterministicPerSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 99, -7} {
		a, b := streamBytes(seed), streamBytes(seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if bytes.Equal(streamBytes(1), streamBytes(2)) {
		t.Fatal("seeds 1 and 2 generate identical inputs")
	}
}

// Every design any seed can generate has a golden row, and the table
// has no row the generators cannot produce.
func TestGoldenCoversGenerators(t *testing.T) {
	g, err := LoadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, k := range GoldenKeys() {
		want[k] = true
		if _, ok := g[k]; !ok {
			t.Errorf("no golden row for %s", k)
		}
	}
	for k := range g {
		if !want[k] {
			t.Errorf("golden row %s matches no generated design", k)
		}
	}
	for seed := int64(0); seed < 5; seed++ {
		for c := 0; c < serviceClients; c++ {
			gen := newClientGen(seed, 0, c)
			gen.Prime()
			for k := 0; k < 300; k++ {
				if r := gen.Next(); r.Sweep == nil && !want[r.Doc.key] {
					t.Fatalf("seed %d: generated design %s has no golden row", seed, r.Doc.key)
				}
			}
		}
	}
}

// The class mix is exact in every block of twenty requests.
func TestClassShares(t *testing.T) {
	gen := newClientGen(5, 0, 0)
	gen.Prime()
	count := map[string]int{}
	for k := 0; k < 20*len(classBlock); k++ {
		count[gen.Next().Class]++
	}
	want := map[string]int{}
	for _, c := range classBlock {
		want[c] += 20
	}
	for c, n := range want {
		if c == classEdit || c == classCold {
			continue // an edit with no fresh composition left falls back to cold
		}
		if count[c] != n {
			t.Errorf("%s: %d requests, want %d", c, count[c], n)
		}
	}
	if count[classEdit]+count[classCold] != want[classEdit]+want[classCold] {
		t.Errorf("edit+cold: %d, want %d", count[classEdit]+count[classCold], want[classEdit]+want[classCold])
	}
}
