package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"pnp/internal/adl"
	"pnp/internal/checker"
)

// PropRow is one property's known answer: its verdict ("verified" or the
// violation kind, as job documents spell it) and StatesStored.
type PropRow struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"`
	States  int    `json:"states"`
}

// Golden maps a design key (BridgeDesign.Key, Variant.Key) to the known
// answer of each of its properties, sorted by property name.
type Golden map[string][]PropRow

//go:embed golden.json
var goldenJSON []byte

// LoadGolden parses the committed golden table.
func LoadGolden() (Golden, error) {
	var g Golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// Check compares a design's observed properties with its golden row.
func (g Golden) Check(key string, got []PropRow) error {
	want, ok := g[key]
	if !ok {
		return fmt.Errorf("%s: no golden row", key)
	}
	got = append([]PropRow(nil), got...)
	sort.Slice(got, func(i, j int) bool { return got[i].Name < got[j].Name })
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d properties, golden has %d", key, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: property %s: got %s/%d states, golden %s/%s/%d states",
				key, got[i].Name, got[i].Verdict, got[i].States, want[i].Name, want[i].Verdict, want[i].States)
		}
	}
	return nil
}

// verdictOf spells a checker result the way verifyd job documents do.
func verdictOf(res *checker.Result) string {
	if res.OK {
		return "verified"
	}
	return res.Kind.String()
}

// rowsOf turns a VerifyAll result map into property rows.
func rowsOf(results map[string]*checker.Result) []PropRow {
	rows := make([]PropRow, 0, len(results))
	for name, res := range results {
		rows = append(rows, PropRow{Name: name, Verdict: verdictOf(res), States: res.Stats.StatesStored})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// designSource returns the ADL text and component files of a golden key.
func designSource(key string) (string, map[string]string, error) {
	for _, d := range AllBridgeDesigns() {
		if d.Key() == key {
			return d.ADL(), bridgeFiles, nil
		}
	}
	for _, v := range AllVariants() {
		if v.Key() == key {
			return v.ADL(""), map[string]string{v.Base.File: component(v.Base.File)}, nil
		}
	}
	return "", nil, fmt.Errorf("unknown design key %q", key)
}

func mapResolver(files map[string]string) adl.Resolver {
	return func(path string) (string, error) {
		if s, ok := files[path]; ok {
			return s, nil
		}
		return "", fmt.Errorf("no component %q", path)
	}
}

// BuildGolden verifies every generated design with the sequential DFS
// (Workers 0) and the parallel BFS at 1 and 2 workers, requires them to
// agree, and writes the table as JSON. Verdicts must agree everywhere;
// a verified property must store the same states under every engine; a
// violated one must store the same states at both worker counts (the
// DFS stops at a different, engine-specific point). The parallel count
// is recorded, since that is what the workloads run.
func BuildGolden(w io.Writer, log io.Writer) error {
	g := Golden{}
	for _, key := range GoldenKeys() {
		src, files, err := designSource(key)
		if err != nil {
			return err
		}
		sys, err := adl.Load(src, mapResolver(files), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		t0 := time.Now()
		runs := make([][]PropRow, 3)
		for i, workers := range []int{0, 1, 2} {
			runs[i] = rowsOf(sys.VerifyAll(checker.Options{Workers: workers}))
		}
		for p := range runs[2] {
			seq, w1, w2 := runs[0][p], runs[1][p], runs[2][p]
			if seq.Verdict != w2.Verdict || w1.Verdict != w2.Verdict {
				return fmt.Errorf("%s: %s: engines disagree on the verdict: dfs %s, 1 worker %s, 2 workers %s",
					key, w2.Name, seq.Verdict, w1.Verdict, w2.Verdict)
			}
			if w1.States != w2.States || (w2.Verdict == "verified" && seq.States != w2.States) {
				return fmt.Errorf("%s: %s: engines disagree on states: dfs %d, 1 worker %d, 2 workers %d",
					key, w2.Name, seq.States, w1.States, w2.States)
			}
		}
		g[key] = runs[2]
		fmt.Fprintf(log, "%-90s %8.3fs %v\n", key, time.Since(t0).Seconds(), runs[2])
	}
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One row per line keeps the committed table diffable.
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		// Marshalling a string or a slice of flat structs cannot fail.
		kj, _ := json.Marshal(k)
		rj, _ := json.Marshal(g[k])
		fmt.Fprintf(&b, "  %s: %s", kj, rj)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeGoldenFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := BuildGolden(f, os.Stderr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
