package main

import (
	"context"
	"os"
	"testing"

	"pnp/internal/verifyd/client"
)

// corrupt returns a copy of g whose row for key claims one more state.
func corrupt(g Golden, key string) Golden {
	out := Golden{}
	for k, v := range g {
		out[k] = v
	}
	rows := append([]PropRow(nil), g[key]...)
	rows[0].States++
	out[key] = rows
	return out
}

func TestCorruptedGoldenRowIsAFailure(t *testing.T) {
	g, err := LoadGolden()
	if err != nil {
		t.Fatal(err)
	}
	d := BridgeDesign{EnterSend: "asyn-blocking", N: 1, Visited: "exact"}
	acct := &accounting{}
	verifyBridge(context.Background(), d, g, acct, nil)
	if acct.failed != 0 || acct.attempted != 1 {
		t.Fatalf("intact table: %d of %d failed: %v", acct.failed, acct.attempted, acct.msgs)
	}
	acct = &accounting{}
	verifyBridge(context.Background(), d, corrupt(g, d.Key()), acct, nil)
	if acct.failed != 1 {
		t.Fatalf("corrupted row: %d failures, want 1", acct.failed)
	}
}

// A job document is held to its golden row and to its request class.
func TestJobChecks(t *testing.T) {
	g, err := LoadGolden()
	if err != nil {
		t.Fatal(err)
	}
	v := Variant{Base: &Bases[0], Assign: Bases[0].Default}
	job := func(misses, compiled int) *client.Job {
		rep := &client.Report{OK: true}
		for _, r := range g[v.Key()] {
			rep.Properties = append(rep.Properties, client.PropertyVerdict{Name: r.Name, Verdict: r.Verdict, States: r.States})
		}
		return &client.Job{Report: rep, CacheMisses: misses, ModulesCompiled: compiled}
	}
	req := func(class string) Request { return Request{Class: class, Doc: doc{key: v.Key()}} }
	cases := []struct {
		name  string
		class string
		job   *client.Job
		g     Golden
		fails int
	}{
		{"hit", classHit, job(0, 0), g, 0},
		{"hit that searched", classHit, job(1, 0), g, 1},
		{"edit", classEdit, job(2, 1), g, 0},
		{"edit compiling two modules", classEdit, job(2, 2), g, 1},
		{"cold without search", classCold, job(0, 3), g, 1},
		{"corrupted golden row", classHit, job(0, 0), corrupt(g, v.Key()), 1},
	}
	for _, c := range cases {
		acct := &accounting{}
		checkJob(req(c.class), c.job, c.g, acct)
		if acct.failed != c.fails {
			t.Errorf("%s: %d failures, want %d (%v)", c.name, acct.failed, c.fails, acct.msgs)
		}
	}
}

// The faulty pipe delivers exactly the plan's survivors, and the
// reliable ones deliver everything in order.
func TestPipePassesCheckDelivery(t *testing.T) {
	for _, c := range Compositions {
		acct := &accounting{}
		p := runPass(context.Background(), c, 3, acct, nil, false)
		if acct.failed != 0 {
			t.Fatalf("%s: %v", c.Name, acct.msgs)
		}
		if c.Faulty && (p.delivered >= PipeMsgs || p.injected == 0) {
			t.Fatalf("%s: delivered %d, injected %d: the plan did nothing", c.Name, p.delivered, p.injected)
		}
	}
}

// A short service mix from both clients at once: every job matches its
// golden row and its class, and the server drains cleanly.
func TestServiceMixSmoke(t *testing.T) {
	g, err := LoadGolden()
	if err != nil {
		t.Fatal(err)
	}
	// The data directory goes under .bench_build in the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	acct := &accounting{}
	s, err := startService(context.Background(), 4, 0, g, acct, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	res := s.run(context.Background(), size{n: 40}, g, acct, nil)
	s.stop()
	if acct.failed != 0 {
		t.Fatalf("%d of %d failed: %v", acct.failed, acct.attempted, acct.msgs)
	}
	classes := map[string]int{}
	for _, smp := range res.samples {
		classes[smp.class]++
	}
	if len(res.samples) != 2*40 || classes[classSweep] == 0 || classes[classEdit] == 0 {
		t.Fatalf("samples by class: %v", classes)
	}
}
