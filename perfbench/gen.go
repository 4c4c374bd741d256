package main

import (
	"embed"
	"fmt"
	"math/rand"
	"strings"
)

// The component models every generated design composes. They are copies
// of the repository's examples, frozen here so the benchmark's inputs
// and golden rows change only when the benchmark does.
//
//go:embed designs/*.pml
var designFS embed.FS

func component(name string) string {
	b, err := designFS.ReadFile("designs/" + name)
	if err != nil {
		panic(err) // embedded at build time; a missing file is a build bug
	}
	return string(b)
}

// newRand returns the generator stream for one seed and one named
// purpose, so adding a draw for one purpose never shifts another's.
func newRand(seed int64, purpose string) *rand.Rand {
	h := uint64(1469598103934665603)
	for i := 0; i < len(purpose); i++ {
		h ^= uint64(purpose[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h)))
}

// Conn is one connector's block composition in ADL tokens.
type Conn struct{ Send, Channel, Recv string }

func (c Conn) String() string { return c.Send + " " + c.Channel + " " + c.Recv }

// Alphabet is every connector composition the service mix may edit a
// connector to: five send ports, six channels, two receive ports.
func Alphabet() []Conn {
	var out []Conn
	for _, s := range []string{"syn-blocking", "syn-checking", "asyn-blocking", "asyn-checking", "asyn-nonblocking"} {
		for _, ch := range []string{"single-slot", "fifo(1)", "fifo(2)", "priority(2)", "dropping(2)", "lossy(1)"} {
			for _, r := range []string{"blocking", "nonblocking"} {
				out = append(out, Conn{s, ch, r})
			}
		}
	}
	return out
}

func connBlock(name string, c Conn) string {
	return fmt.Sprintf("    connector %s {\n        send    %s\n        channel %s\n        receive %s\n    }\n", name, c.Send, c.Channel, c.Recv)
}

// ---- bridge-verify designs ----

// BridgeDesign is one paper-bridge design (Fig. 13 with the Fig. 14
// quota) plus the checker storage it is verified with.
type BridgeDesign struct {
	EnterSend string // send port of both enter connectors
	N         int    // TurnController quota
	Visited   string // "exact" or "collapse"
	LTL       bool   // adds an ltl property, searched by nested DFS
}

// SafeSends keep opposite cars off the bridge; UnsafeSends let a car
// drive on once its request is buffered (paper §4).
var (
	SafeSends   = []string{"syn-blocking", "syn-checking"}
	UnsafeSends = []string{"asyn-blocking", "asyn-checking"}
)

// Key names the design's golden row. Storage is not part of it: it
// never changes a verdict or a state count.
func (d BridgeDesign) Key() string {
	k := fmt.Sprintf("bridge/enter=%s/n=%d", d.EnterSend, d.N)
	if d.LTL {
		k += "/ltl"
	}
	return k
}

// ADL renders the design by rewriting the paper bridge's enter sends and
// quotas.
func (d BridgeDesign) ADL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Generated paper bridge: enter %s, quota %d.\n\nsystem bridge {\n    components \"bridge.pml\"\n\n", d.EnterSend, d.N)
	enter := Conn{d.EnterSend, "fifo(2)", "blocking"}
	exit := Conn{"asyn-blocking", "single-slot", "blocking"}
	b.WriteString(connBlock("BlueEnter", enter))
	b.WriteString(connBlock("RedEnter", enter))
	b.WriteString(connBlock("RedExit", exit))
	b.WriteString(connBlock("BlueExit", exit))
	fmt.Fprintf(&b, `
    instance blueCar = Car(send BlueEnter, send RedExit, 0)
    instance redCar  = Car(send RedEnter, send BlueExit, 1)

    instance blueCtl = TurnController(recv BlueEnter, recv BlueExit, %d, 1)
    instance redCtl  = TurnController(recv RedEnter, recv RedExit, %d, 0)

    invariant bridge_safety "!(blueOn > 0 && redOn > 0)"
`, d.N, d.N)
	if d.LTL {
		b.WriteString(`    ltl one_way "[] oneway" { oneway = "!(blueOn > 0 && redOn > 0)" }` + "\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// BridgeRound is one round of the bridge-verify workload: two safe
// designs, quota 1 carrying the LTL property and quota 2, in a seeded
// order, each with a seeded safe send; one of them has exact and the
// other collapse storage, the seed deciding which in round 0 and the
// rounds then taking turns, so every pair of rounds verifies quota 2
// with exact storage (the run's peak resident set) once. The eight
// unsafe designs (both unsafe sends, both quotas, both storage modes)
// time the counterexample path in a seeded order. Every round holds the
// same shapes, so rounds of different seeds cost the same work: the two
// safe sends store the same states, and swapping the storage modes
// between the quotas moves a round's time by well under 1%.
type BridgeRound struct {
	Safe   []BridgeDesign
	Unsafe []BridgeDesign
}

// GenBridgeRound draws round i of the seed's stream.
func GenBridgeRound(seed int64, i int) BridgeRound {
	r := newRand(seed, fmt.Sprintf("bridge-round-%d", i))
	var rd BridgeRound
	storage := []string{"exact", "collapse"}
	if (newRand(seed, "bridge-storage").Intn(2)+i)%2 == 1 {
		storage[0], storage[1] = storage[1], storage[0]
	}
	rd.Safe = []BridgeDesign{
		{EnterSend: SafeSends[r.Intn(len(SafeSends))], N: 1, Visited: storage[0], LTL: true},
		{EnterSend: SafeSends[r.Intn(len(SafeSends))], N: 2, Visited: storage[1]},
	}
	r.Shuffle(len(rd.Safe), func(a, b int) { rd.Safe[a], rd.Safe[b] = rd.Safe[b], rd.Safe[a] })
	for _, send := range UnsafeSends {
		for _, n := range []int{1, 2} {
			for _, v := range []string{"exact", "collapse"} {
				rd.Unsafe = append(rd.Unsafe, BridgeDesign{EnterSend: send, N: n, Visited: v})
			}
		}
	}
	r.Shuffle(len(rd.Unsafe), func(a, b int) { rd.Unsafe[a], rd.Unsafe[b] = rd.Unsafe[b], rd.Unsafe[a] })
	return rd
}

// ---- service-mix designs ----

// Base is a small design the service mix edits: a template over its
// connectors' compositions plus the component file it composes.
type Base struct {
	Name    string
	File    string // component file: the name the ADL uses and the embedded model
	Conns   []string
	Default []Conn
	// Editable lists the connectors an edit may change (nil: all). The
	// broken bridge keeps its enter connectors: making one of them
	// synchronous grows the search to 20k-170k states.
	Editable  []int
	adlFormat string // %s = connector blocks
}

// editable returns the indices of the connectors an edit may change.
func (b *Base) editable() []int {
	if b.Editable != nil {
		return b.Editable
	}
	idx := make([]int, len(b.Conns))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Bases are the service mix's designs. Every single-connector edit of
// an editable connector stores at most about 5k states (the golden
// table pins them).
var Bases = []Base{
	{
		Name: "pingpong", File: "pingpong.pml",
		Conns:   []string{"Wire"},
		Default: []Conn{{"syn-blocking", "fifo(2)", "blocking"}},
		adlFormat: `system pingpong {
    components "pingpong.pml"

%s
    instance ping = Ping(send Wire, 3)
    instance pong = Pong(recv Wire, 3)

    invariant conservation "got <= sent"
    ltl bounded "[] small" { small = "sent <= 3" }
}
`,
	},
	{
		Name: "lossy", File: "pingpong.pml",
		Conns:   []string{"Wire"},
		Default: []Conn{{"asyn-blocking", "lossy(1)", "nonblocking"}},
		adlFormat: `system lossy_pingpong {
    components "pingpong.pml"

%s
    instance ping = Ping(send Wire, 2)
    instance pong = Pong(recv Wire, 2)

    invariant conservation "got <= sent"
    goal delivery "got == 2"

    faults {
        seed 42
        drop Wire 20
        delay Wire 10 delay 1
    }
}
`,
	},
	{
		Name: "prodcons", File: "prodcons.pml",
		Conns:   []string{"pipe"},
		Default: []Conn{{"syn-blocking", "fifo(1)", "blocking"}},
		adlFormat: `system prodcons {
    components "prodcons.pml"

%s
    instance p = Producer(send pipe, 2)
    instance c = Consumer(recv pipe, 2)

    invariant safety "got >= 0"
    goal delivered "got == 2"
}
`,
	},
	{
		Name: "bridge-broken", File: "bridge.pml",
		Conns: []string{"BlueEnter", "RedEnter", "RedExit", "BlueExit"},
		Default: []Conn{
			{"asyn-blocking", "fifo(2)", "blocking"}, {"asyn-blocking", "fifo(2)", "blocking"},
			{"asyn-blocking", "single-slot", "blocking"}, {"asyn-blocking", "single-slot", "blocking"},
		},
		Editable: []int{2, 3},
		adlFormat: `system bridge_broken {
    components "bridge.pml"

%s
    instance blueCar = Car(send BlueEnter, send RedExit, 0)
    instance redCar  = Car(send RedEnter, send BlueExit, 1)

    instance blueCtl = TurnController(recv BlueEnter, recv BlueExit, 1, 1)
    instance redCtl  = TurnController(recv RedEnter, recv RedExit, 1, 0)

    invariant bridge_safety "!(blueOn > 0 && redOn > 0)"
}
`,
	},
}

// SweepBase is the base of the sweep requests; its cells are prodcons
// designs with the pipe connector varied.
var SweepBase = Bases[2]

// Variant is one service design: a base with a full connector assignment.
type Variant struct {
	Base   *Base
	Assign []Conn
}

// Key names the variant's golden row.
func (v Variant) Key() string {
	parts := make([]string, len(v.Assign))
	for i, c := range v.Assign {
		parts[i] = v.Base.Conns[i] + "=" + c.String()
	}
	return v.Base.Name + "|" + strings.Join(parts, ";")
}

// ADL renders the variant. note, when non-empty, becomes a leading
// comment: a comment-only change, which gives the text a new submission
// key and leaves the model untouched.
func (v Variant) ADL(note string) string {
	var blocks strings.Builder
	for i, c := range v.Assign {
		if i > 0 {
			blocks.WriteByte('\n')
		}
		blocks.WriteString(connBlock(v.Base.Conns[i], c))
	}
	src := fmt.Sprintf(v.Base.adlFormat, blocks.String())
	if note != "" {
		src = "# " + note + "\n" + src
	}
	return src
}

// ComponentText is the base's component model as one client's copy:
// tag becomes a leading comment, so every (client, tag) pair is a
// component file the server has not seen, with an unchanged model.
func ComponentText(b *Base, tag string) string {
	return "/* " + tag + " */\n" + component(b.File)
}

// GoldenKeys lists every design the generators can produce, in a fixed
// order: the bridge shapes, then the service designs (AllVariants).
func GoldenKeys() []string {
	var keys []string
	for _, d := range AllBridgeDesigns() {
		keys = append(keys, d.Key())
	}
	for _, v := range AllVariants() {
		keys = append(keys, v.Key())
	}
	return keys
}

// AllBridgeDesigns enumerates every bridge shape a round can draw.
func AllBridgeDesigns() []BridgeDesign {
	var out []BridgeDesign
	for _, s := range append(append([]string(nil), SafeSends...), UnsafeSends...) {
		for _, n := range []int{1, 2} {
			out = append(out, BridgeDesign{EnterSend: s, N: n})
			if n == 1 && (s == SafeSends[0] || s == SafeSends[1]) {
				out = append(out, BridgeDesign{EnterSend: s, N: n, LTL: true})
			}
		}
	}
	return out
}

// AllVariants enumerates every service design the mix can send: each
// base as it is, every single-connector edit of EditBase, and every
// sweep cell (SweepBase with its connector changed).
func AllVariants() []Variant {
	var out []Variant
	seen := map[string]bool{}
	add := func(v Variant) {
		if !seen[v.Key()] {
			seen[v.Key()] = true
			out = append(out, v)
		}
	}
	for i := range Bases {
		add(Variant{Base: &Bases[i], Assign: Bases[i].Default})
	}
	for _, b := range []*Base{&SweepBase, EditBase} {
		for _, ci := range b.editable() {
			for _, c := range Alphabet() {
				a := append([]Conn(nil), b.Default...)
				a[ci] = c
				add(Variant{Base: b, Assign: a})
			}
		}
	}
	return out
}
