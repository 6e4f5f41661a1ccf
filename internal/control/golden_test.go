package control

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
)

// stubExemplars hands every volume space a fixed trace derived from its
// name, so exemplar links land in the transition and record logs.
type stubExemplars struct{}

func (stubExemplars) Exemplar(space string) (id, latNS uint64, ok bool) {
	if !strings.Contains(space, ".vol.") {
		return 0, 0, false
	}
	h := fnv.New64a()
	h.Write([]byte(space))
	return h.Sum64() | 1, uint64(len(space)) * 1000, true
}

// regime is one signal source's current badness level.
type regime int

const (
	calm regime = iota
	moderate
	heavy
	quiet // no events at all
)

// goldenSystem is one synthetic system's cumulative counters and regimes.
type goldenSystem struct {
	name string
	rng  *rand.Rand
	act  *fakeActuator
	sloE *slo.Engine
	ctlE *Engine

	vols     [3]regime
	io       regime
	counters map[string]float64
	free     float64
}

func (g *goldenSystem) add(store *tsdb.Store, suffix string, cp uint64, at time.Duration, d float64) {
	name := g.name + "." + suffix
	g.counters[name] += d
	store.Observe(name, cp, at, g.counters[name])
}

func (g *goldenSystem) shift(r regime) regime {
	if g.rng.Intn(25) == 0 {
		return regime(g.rng.Intn(4))
	}
	return r
}

// step feeds one CP's worth of series for the system, then evaluates the
// SLO engine and the controller, in the CP tail's order.
func (g *goldenSystem) step(store *tsdb.Store, cp uint64) {
	at := time.Duration(cp) * 10 * time.Second
	badFrac := map[regime]float64{calm: 0.001, moderate: 0.04, heavy: 0.2}
	for k := range g.vols {
		g.vols[k] = g.shift(g.vols[k])
		vol := "vol.v" + strconv.Itoa(k)
		ops := 0.0
		if g.vols[k] != quiet {
			ops = float64(50 + g.rng.Intn(20))
		}
		bad := float64(int(ops * badFrac[g.vols[k]]))
		fast := float64(int((ops - bad) / 2))
		g.add(store, vol+".lat_ns.count", cp, at, ops)
		g.add(store, vol+".lat_ns.le_1000000", cp, at, fast)
		g.add(store, vol+".lat_ns.le_20000000", cp, at, ops-bad)
		g.add(store, vol+".lat_ns.le_100000000", cp, at, ops-bad/2)
		g.add(store, vol+".alloc.picks", cp, at, ops)
		g.add(store, vol+".alloc.refill_stalls", cp, at, float64(int(bad/2)))
		queue := 5 + float64(g.rng.Intn(4))
		if g.vols[k] == heavy {
			queue += 10
		}
		store.Observe(g.name+"."+vol+".queue", cp, at, queue)
	}
	g.add(store, "pool.alloc.picks", cp, at, 40)
	g.add(store, "pool.alloc.refill_stalls", cp, at, 0)

	g.add(store, "watchdog.checks", cp, at, 100)
	viol := 0.0
	if g.rng.Intn(60) == 0 {
		viol = 1
	}
	g.add(store, "watchdog.violations", cp, at, viol)

	mounts, fallbacks := 0.0, 0.0
	if g.rng.Intn(40) == 0 {
		mounts = 1
		if g.rng.Intn(2) == 0 {
			fallbacks = 1
		}
	}
	g.add(store, "mount.count", cp, at, mounts)
	g.add(store, "mount.fallbacks", cp, at, fallbacks)

	g.io = g.shift(g.io)
	ioBad := map[regime]float64{calm: 1, moderate: 8, heavy: 30}[g.io]
	ioTotal := 100.0
	if g.io == quiet {
		ioTotal = 0
	}
	g.add(store, "io.total", cp, at, ioTotal)
	g.add(store, "io.bad", cp, at, ioBad)

	g.free += (g.rng.Float64() - 0.5) / 10
	if g.free < 0.1 || g.free > 0.6 {
		g.free = 0.35
	}
	store.Observe(g.name+".frag.free_frac", cp, at, g.free)

	// A window in which the actuator refuses alloc_batch moves.
	g.act.reject[KnobAllocBatch] = cp >= 300 && cp < 360

	g.sloE.Evaluate(cp, at)
	g.ctlE.Evaluate(cp, at)
}

// goldenRuleRun drives the default SLO portfolio plus a ratio spec and the
// default control portfolio plus '<'-op and '%'-step policies over two
// synthetic systems sharing one store, and returns both Sets and the store.
// It fails the test unless the run covered every state-machine edge, every
// suppression reason, and overflowed the bounded transition and record
// logs.
func goldenRuleRun(t *testing.T) (*slo.Set, *Set, *tsdb.Store) {
	t.Helper()
	specs, err := slo.ParseSpecs("default;name=io,kind=ratio,bad=io.bad,total=io.total,target=0.95,page=4@20s/60s,warn=1.5@20s/120s,hold=2,min=10")
	if err != nil {
		t.Fatal(err)
	}
	pols, err := ParsePolicies("default;" +
		"name=free_low,signal=frag.free_frac,op=<,value=0.3,hold=2,action=alloc_batch,step=+25%,max=96;" +
		"name=queue_high,signal=vol.*.queue,op=>,value=10,hold=1,action=frag_every,step=+50%,max=12")
	if err != nil {
		t.Fatal(err)
	}
	sloSet, ctlSet := slo.NewSet(specs), NewSet(pols)
	store := tsdb.NewStore(tsdb.Config{Capacity: 256})
	var systems []*goldenSystem
	for i, name := range []string{"b", "a"} {
		g := &goldenSystem{name: name, rng: rand.New(rand.NewSource(int64(41 + i))),
			act: newFakeActuator(), counters: map[string]float64{}, free: 0.35}
		g.sloE = sloSet.Engine(name, store)
		g.sloE.SetExemplarSource(stubExemplars{})
		g.ctlE = ctlSet.Engine(name, store, g.act)
		g.ctlE.SetExemplarSource(stubExemplars{})
		systems = append(systems, g)
	}

	edges := map[string]bool{}
	reasons := map[string]bool{}
	for cp := uint64(1); cp <= 720; cp++ {
		for _, g := range systems {
			sloBefore, ctlBefore := g.sloE.Transitions(), g.ctlE.Transitions()
			recBefore := g.ctlE.Actuations() + g.ctlE.Suppressed()
			g.step(store, cp)
			st := g.sloE.Status()
			for _, tr := range st.Transitions[len(st.Transitions)-int(g.sloE.Transitions()-sloBefore):] {
				edges[fmt.Sprintf("slo %s>%s", tr.From, tr.To)] = true
			}
			ct := g.ctlE.Status()
			for _, tr := range ct.Transitions[len(ct.Transitions)-int(g.ctlE.Transitions()-ctlBefore):] {
				edges[fmt.Sprintf("control %s>%s", tr.From, tr.To)] = true
			}
			recs := ct.Records[len(ct.Records)-int(g.ctlE.Actuations()+g.ctlE.Suppressed()-recBefore):]
			for _, r := range recs {
				reasons[r.Reason] = true
			}
		}
	}
	for _, e := range []string{"slo ok>warn", "slo warn>page", "slo page>ok",
		"control ok>armed", "control armed>acted", "control acted>armed", "control armed>ok"} {
		if !edges[e] {
			t.Errorf("trajectory never crossed edge %q (saw %v)", e, edges)
		}
	}
	for _, r := range []string{"applied", "clamped", "no_knob", "rejected"} {
		if !reasons[r] {
			t.Errorf("trajectory never produced reason %q (saw %v)", r, reasons)
		}
	}
	for _, g := range systems {
		if g.sloE.Transitions() <= 128 || g.ctlE.Transitions() <= 128 ||
			g.ctlE.Actuations()+g.ctlE.Suppressed() <= 128 {
			t.Errorf("system %s did not overflow its logs: slo %d, control %d transitions, %d records",
				g.name, g.sloE.Transitions(), g.ctlE.Transitions(), g.ctlE.Actuations()+g.ctlE.Suppressed())
		}
	}
	return sloSet, ctlSet, store
}

// goldenRuleStreams returns the SHA-256 of both Sets' status documents and
// of the store after goldenRuleRun.
func goldenRuleStreams(t *testing.T) map[string]string {
	sloSet, ctlSet, store := goldenRuleRun(t)
	digest := func(write func(*bytes.Buffer) error) string {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
	}
	return map[string]string{
		"slo":     digest(func(b *bytes.Buffer) error { return sloSet.WriteJSON(b) }),
		"control": digest(func(b *bytes.Buffer) error { return ctlSet.WriteJSON(b) }),
		"store":   digest(func(b *bytes.Buffer) error { return store.WriteJSON(b) }),
	}
}

// TestRuleStreamsGolden pins the SLO and control evaluation streams — both
// status documents, with their transition and decision logs, and every
// series the engines write back — to fixed digests. A change to the shared
// rule machinery (hysteresis, logs, Sets, exemplar links) that moves any
// state, record, or series fails here.
func TestRuleStreamsGolden(t *testing.T) {
	want := map[string]string{
		"slo":     "ab031cdd9c7285642379d4b0c4fd7a1cb8ef7346716904d39ebd12903713cefe",
		"control": "286da6e82934f504ba3cc4b48414aaf67c3b2ccc58b3204b9366eb54158e345c",
		"store":   "59db3d71497fb363bacc7de7124c400fe6f8823e507f5102e51a0ba9e10e6817",
	}
	got := goldenRuleStreams(t)
	for stream, w := range want {
		if got[stream] != w {
			t.Errorf("%s digest %s, want %s", stream, got[stream], w)
		}
	}
}

// Both status documents decode into the packages' own Doc types — states
// and all — and re-encode to the identical bytes, so a client such as
// wafltop reads them without mirror structs.
func TestStatusDocsRoundTrip(t *testing.T) {
	sloSet, ctlSet, _ := goldenRuleRun(t)
	roundTrip := func(name string, write func(*bytes.Buffer) error, doc any) {
		var orig, again bytes.Buffer
		if err := write(&orig); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(orig.Bytes(), doc); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		enc := json.NewEncoder(&again)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig.Bytes(), again.Bytes()) {
			t.Fatalf("%s: document did not survive a decode/encode round trip", name)
		}
	}
	roundTrip("slo", func(b *bytes.Buffer) error { return sloSet.WriteJSON(b) }, &slo.Doc{})
	roundTrip("control", func(b *bytes.Buffer) error { return ctlSet.WriteJSON(b) }, &Doc{})
}
