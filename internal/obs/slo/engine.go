package slo

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"waflfs/internal/obs"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/rules"
)

// alertLevels names the SLO alert levels.
type alertLevels struct{}

func (alertLevels) Names() [3]string { return [3]string{"ok", "warn", "page"} }

// State is the alert level of one SLO instance.
type State = rules.State[alertLevels]

const (
	StateOK State = iota
	StateWarn
	StatePage
)

// Transition is one alert edge; space-scoped instances link an exemplar.
type Transition = rules.Transition[alertLevels]

// mark records one past evaluation point: windows are anchored to the
// newest mark at least a window-width of modeled time in the past, so a
// "30s window" means "since the CP boundary nearest 30s of modeled time
// ago" — exact at CP granularity, never interpolated.
type mark struct {
	cp uint64
	at time.Duration
}

// instance is one live alert: a spec bound to concrete series names
// (latency and stall specs fan out to one instance per matching space).
type instance struct {
	spec  *Spec
	name  string // spec name, plus ".<space>" for fanned-out kinds
	space string

	totalSeries string
	badSeries   string // direct bad counter; empty for latency
	leSeries    string // latency: cumulative bucket at the snapped threshold
	latBase     string // latency: "<sys>.<space>.lat_ns"
	bounds      []uint64

	rules.Machine[alertLevels]

	burnFast, burnSlow float64
	budgetUsed         float64
	winBad, winTotal   float64
	pNs                float64
}

// Engine evaluates a spec portfolio for one system (arm) against its tsdb
// store. All methods are nil-safe; evaluation is deterministic given the
// store contents, which are themselves derived from stable snapshots on
// the modeled clock.
type Engine struct {
	mu    sync.Mutex
	sys   string
	store *tsdb.Store
	specs []Spec

	maxWin  time.Duration
	marks   []mark
	insts   []*instance
	instKey int // store.NumSeries() at last expansion

	evals, warns, pages uint64
	translog            rules.Log[Transition]
	exem                rules.ExemplarSource
}

// SetExemplarSource wires a trace exemplar source: subsequent transitions
// on space-scoped instances carry a representative trace ID. Nil-safe.
func (e *Engine) SetExemplarSource(src rules.ExemplarSource) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.exem = src
	e.mu.Unlock()
}

// NewEngine builds an engine for one system. Returns nil when there is
// nothing to do (no specs or no store), which every method tolerates.
func NewEngine(sys string, specs []Spec, store *tsdb.Store) *Engine {
	if len(specs) == 0 || store == nil {
		return nil
	}
	e := &Engine{sys: sys, store: store, specs: append([]Spec(nil), specs...)}
	for i := range e.specs {
		e.specs[i].normalize()
		for _, w := range []time.Duration{e.specs[i].Page.Slow, e.specs[i].Warn.Slow} {
			if w > e.maxWin {
				e.maxWin = w
			}
		}
	}
	e.instKey = -1 // force expansion on first Evaluate
	return e
}

func matchSpace(pattern, space string) bool {
	if pattern == "*" || pattern == space {
		return true
	}
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(space, p)
	}
	return false
}

// expand resolves wildcard spaces against the store's current series list.
// Called whenever the series count changes (series are only ever added);
// existing instances keep their alert state across expansions.
func (e *Engine) expand() {
	old := make(map[string]*instance, len(e.insts))
	for _, in := range e.insts {
		old[in.name] = in
	}
	e.insts = e.insts[:0]
	add := func(in *instance) {
		if prev, ok := old[in.name]; ok {
			in.Machine = prev.Machine
		}
		e.insts = append(e.insts, in)
	}
	sysPrefix := e.sys + "."
	for i := range e.specs {
		sp := &e.specs[i]
		switch sp.Kind {
		case Watchdog:
			add(&instance{spec: sp, name: sp.Name,
				badSeries:   sysPrefix + "watchdog.violations",
				totalSeries: sysPrefix + "watchdog.checks"})
		case Recovery:
			add(&instance{spec: sp, name: sp.Name,
				badSeries:   sysPrefix + "mount.fallbacks",
				totalSeries: sysPrefix + "mount.count"})
		case Fallback:
			add(&instance{spec: sp, name: sp.Name,
				badSeries:   sysPrefix + "picks.bitmap_fallback",
				totalSeries: sysPrefix + "picks.recorded"})
		case Ratio:
			add(&instance{spec: sp, name: sp.Name,
				badSeries:   sysPrefix + sp.Bad,
				totalSeries: sysPrefix + sp.Total})
		case Stall:
			for _, space := range e.spaces(".alloc.picks", sp.Space) {
				add(&instance{spec: sp, name: sp.Name + "." + space, space: space,
					badSeries:   sysPrefix + space + ".alloc.refill_stalls",
					totalSeries: sysPrefix + space + ".alloc.picks"})
			}
		case Latency:
			for _, space := range e.spaces(".lat_ns.count", sp.Space) {
				base := sysPrefix + space + ".lat_ns"
				bounds := e.bucketBounds(base)
				if len(bounds) == 0 {
					continue // histogram sampled without bucket series
				}
				// Snap the threshold up to the nearest bucket bound; ops in
				// the snapped bucket count as good, so the SLI is a slight
				// under-count of true threshold exceedances.
				snap := bounds[len(bounds)-1]
				for _, b := range bounds {
					if b >= uint64(sp.Threshold) {
						snap = b
						break
					}
				}
				add(&instance{spec: sp, name: sp.Name + "." + space, space: space,
					totalSeries: base + ".count",
					leSeries:    base + ".le_" + strconv.FormatUint(snap, 10),
					latBase:     base, bounds: bounds})
			}
		}
	}
	sort.Slice(e.insts, func(i, j int) bool { return e.insts[i].name < e.insts[j].name })
}

// spaces lists store spaces owning a series named <sys>.<space><suffix>
// and matching the spec's space pattern, sorted.
func (e *Engine) spaces(suffix, pattern string) []string {
	var out []string
	for _, name := range e.store.SeriesWithPrefix(e.sys + ".") {
		mid, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		space := strings.TrimPrefix(mid, e.sys+".")
		if validSpace(space) && matchSpace(pattern, space) {
			out = append(out, space)
		}
	}
	return out
}

// validSpace reports whether a candidate space extracted from a series name
// has the canonical registry shape: "rg<N>", "pool", or "vol.<name>" with a
// dot-free volume name. System names may nest as string prefixes of each
// other in a shared store ("ablate.bias0" prefixes "ablate.bias0.05"), so a
// sibling system's series would otherwise parse as a pseudo-space like
// "05.rg0" whenever the two systems' series coexist — which depends on arm
// interleaving. Shape-checking keeps the expanded instance set a function
// of this system's series alone.
func validSpace(space string) bool {
	if space == "pool" {
		return true
	}
	if rest, ok := strings.CutPrefix(space, "rg"); ok {
		if rest == "" {
			return false
		}
		for _, c := range rest {
			if c < '0' || c > '9' {
				return false
			}
		}
		return true
	}
	if rest, ok := strings.CutPrefix(space, "vol."); ok {
		return rest != "" && !strings.Contains(rest, ".")
	}
	return false
}

// bucketBounds discovers the finite histogram bounds for which the store
// keeps cumulative le_ counter series, ascending.
func (e *Engine) bucketBounds(latBase string) []uint64 {
	prefix := latBase + ".le_"
	var bounds []uint64
	for _, name := range e.store.SeriesWithPrefix(prefix) {
		b, err := strconv.ParseUint(name[len(prefix):], 10, 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return bounds
}

// Evaluate runs every instance against the trailing windows ending at
// (cp, at) and writes the resulting state/burn series back into the store
// under "<sys>.slo.<instance>.*". Call once per CP, after the store's
// Sample for the same CP.
func (e *Engine) Evaluate(cp uint64, at time.Duration) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := e.store.NumSeries(); n != e.instKey {
		e.expand()
		e.instKey = n
	}
	for _, in := range e.insts {
		e.evalInstance(in, cp, at)
	}
	e.marks = append(e.marks, mark{cp: cp, at: at})
	e.prune(at)
}

// baseline returns the CP anchoring a trailing window of width w ending
// at modeled time `at`: the newest past evaluation at least w old, or 0
// (run start) when the run is younger than the window.
func (e *Engine) baseline(at, w time.Duration) uint64 {
	cut := at - w
	var base uint64
	for _, m := range e.marks {
		if m.at > cut {
			break
		}
		base = m.cp
	}
	return base
}

func (e *Engine) prune(at time.Duration) {
	cut := at - e.maxWin
	idx := 0
	for i, m := range e.marks {
		if m.at > cut {
			break
		}
		idx = i
	}
	if idx > 0 {
		e.marks = append(e.marks[:0], e.marks[idx:]...)
	}
}

// badTotal returns the bad/total event deltas for an instance over
// (fromCP, toCP], clamped to 0 ≤ bad ≤ total.
func (e *Engine) badTotal(in *instance, fromCP, toCP uint64) (bad, total float64) {
	total, _ = e.store.CounterDelta(in.totalSeries, fromCP, toCP)
	if in.leSeries != "" {
		good, _ := e.store.CounterDelta(in.leSeries, fromCP, toCP)
		bad = total - good
	} else {
		bad, _ = e.store.CounterDelta(in.badSeries, fromCP, toCP)
	}
	if bad < 0 {
		bad = 0
	}
	if bad > total {
		bad = total
	}
	return bad, total
}

func (e *Engine) evalInstance(in *instance, cp uint64, at time.Duration) {
	e.evals++
	sp := in.spec
	denom := 1 - sp.Target
	burn := func(bad, total float64) float64 {
		if total <= 0 || denom <= 0 {
			return 0
		}
		return (bad / total) / denom
	}
	rate := func(w time.Duration) (float64, float64) {
		return e.badTotal(in, e.baseline(at, w), cp)
	}

	pfBad, pfTot := rate(sp.Page.Fast)
	psBad, psTot := rate(sp.Page.Slow)
	wfBad, wfTot := rate(sp.Warn.Fast)
	wsBad, wsTot := rate(sp.Warn.Slow)
	in.burnFast, in.burnSlow = burn(pfBad, pfTot), burn(psBad, psTot)
	in.winBad, in.winTotal = psBad, psTot

	allBad, allTot := e.badTotal(in, 0, cp)
	in.budgetUsed = burn(allBad, allTot)

	desired := StateOK
	switch {
	case psTot >= float64(sp.MinEvents) &&
		in.burnFast >= sp.Page.Burn && in.burnSlow >= sp.Page.Burn:
		desired = StatePage
	case wsTot >= float64(sp.MinEvents) &&
		burn(wfBad, wfTot) >= sp.Warn.Burn && burn(wsBad, wsTot) >= sp.Warn.Burn:
		desired = StateWarn
	}

	if in.Step(desired, sp.Hold) {
		e.transition(in, cp, at, desired)
	}

	base := e.sys + ".slo." + in.name
	e.store.Observe(base+".state", cp, at, float64(in.State))
	e.store.Observe(base+".burn_fast", cp, at, in.burnFast)
	e.store.Observe(base+".burn_slow", cp, at, in.burnSlow)
	e.store.Observe(base+".budget_used", cp, at, in.budgetUsed)
	if in.leSeries != "" {
		in.pNs = e.windowQuantile(in, cp, at)
		e.store.Observe(base+".p_ns", cp, at, in.pNs)
	}
}

// windowQuantile reconstructs the latency distribution over the page slow
// window from per-bucket counter deltas and reports the target quantile.
func (e *Engine) windowQuantile(in *instance, cp uint64, at time.Duration) float64 {
	from := e.baseline(at, in.spec.Page.Slow)
	hv := obs.HistValue{
		Bounds: in.bounds,
		Counts: make([]uint64, len(in.bounds)+1),
	}
	var prev float64
	for i, b := range in.bounds {
		cum, _ := e.store.CounterDelta(in.latBase+".le_"+strconv.FormatUint(b, 10), from, cp)
		d := cum - prev
		if d < 0 {
			d = 0
		}
		hv.Counts[i] = uint64(d)
		prev = cum
	}
	total, _ := e.store.CounterDelta(in.totalSeries, from, cp)
	if inf := total - prev; inf > 0 {
		hv.Counts[len(in.bounds)] = uint64(inf)
	}
	for _, c := range hv.Counts {
		hv.Count += c
	}
	return hv.Quantile(in.spec.Target)
}

func (e *Engine) transition(in *instance, cp uint64, at time.Duration, to State) {
	tr := in.Move(in.name, cp, at, to)
	tr.ExemplarTrace, tr.ExemplarLatNS = rules.Exemplar(e.exem, e.sys, in.space)
	e.translog.Add(tr)
	switch to {
	case StateWarn:
		e.warns++
	case StatePage:
		e.pages++
	}
}

// Counter accessors feed the slo.* registry metrics; all nil-safe.

func (e *Engine) Evaluations() uint64 { return e.counter(func(e *Engine) uint64 { return e.evals }) }
func (e *Engine) Warns() uint64       { return e.counter(func(e *Engine) uint64 { return e.warns }) }
func (e *Engine) Pages() uint64       { return e.counter(func(e *Engine) uint64 { return e.pages }) }
func (e *Engine) Transitions() uint64 {
	return e.counter(func(e *Engine) uint64 { return e.translog.Added() })
}

func (e *Engine) counter(f func(*Engine) uint64) uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return f(e)
}

// Active counts instances currently in warn and page state.
func (e *Engine) Active() (warns, pages int) {
	if e == nil {
		return 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active()
}

func (e *Engine) active() (warns, pages int) {
	for _, in := range e.insts {
		switch in.State {
		case StateWarn:
			warns++
		case StatePage:
			pages++
		}
	}
	return warns, pages
}

// InstanceStatus is the reported state of one alert instance.
type InstanceStatus struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	State       string  `json:"state"`
	SinceCP     uint64  `json:"since_cp"`
	Target      float64 `json:"target"`
	BurnFast    float64 `json:"burn_fast"`
	BurnSlow    float64 `json:"burn_slow"`
	BudgetUsed  float64 `json:"budget_used"`
	WindowBad   float64 `json:"window_bad"`
	WindowTotal float64 `json:"window_total"`
	PNs         float64 `json:"p_ns,omitempty"`
}

// SystemStatus is one engine's full report.
type SystemStatus struct {
	System      string           `json:"system"`
	Evaluations uint64           `json:"evaluations"`
	Warns       uint64           `json:"warns"`
	Pages       uint64           `json:"pages"`
	ActiveWarns int              `json:"active_warns"`
	ActivePages int              `json:"active_pages"`
	Instances   []InstanceStatus `json:"instances"`
	Transitions []Transition     `json:"transitions,omitempty"`
}

// Status snapshots the engine; instance order is deterministic.
func (e *Engine) Status() SystemStatus {
	if e == nil {
		return SystemStatus{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := SystemStatus{
		System:      e.sys,
		Evaluations: e.evals,
		Warns:       e.warns,
		Pages:       e.pages,
		Transitions: e.translog.Entries(),
	}
	st.ActiveWarns, st.ActivePages = e.active()
	for _, in := range e.insts {
		st.Instances = append(st.Instances, InstanceStatus{
			Name: in.name, Kind: string(in.spec.Kind), State: in.State.String(),
			SinceCP: in.SinceCP, Target: in.spec.Target,
			BurnFast: in.burnFast, BurnSlow: in.burnSlow,
			BudgetUsed: in.budgetUsed,
			WindowBad:  in.winBad, WindowTotal: in.winTotal, PNs: in.pNs,
		})
	}
	return st
}

// Totals aggregates alert activity across a Set's engines.
type Totals struct {
	Systems     int    `json:"systems"`
	Instances   int    `json:"instances"`
	Evaluations uint64 `json:"evaluations"`
	Transitions uint64 `json:"transitions"`
	Warns       uint64 `json:"warns"`
	Pages       uint64 `json:"pages"`
	ActiveWarns int    `json:"active_warns"`
	ActivePages int    `json:"active_pages"`
}

// Tally adds the engine's alert activity to t.
func (e *Engine) Tally(t *Totals) {
	e.mu.Lock()
	defer e.mu.Unlock()
	warns, pages := e.active()
	t.Systems++
	t.Instances += len(e.insts)
	t.Evaluations += e.evals
	t.Transitions += e.translog.Added()
	t.Warns += e.warns
	t.Pages += e.pages
	t.ActiveWarns += warns
	t.ActivePages += pages
}

// Doc is the /debug/slo document.
type Doc = rules.Doc[SystemStatus, Totals]

// Set holds one spec portfolio and its engines, one per system (arm), in a
// rules.Set: see there for the re-arm rule, the totals, and the status
// document. All methods are nil-safe.
type Set struct {
	specs []Spec
	set   rules.Set[*Engine, SystemStatus, Totals]
}

// NewSet builds a set from a portfolio; nil for an empty one.
func NewSet(specs []Spec) *Set {
	if len(specs) == 0 {
		return nil
	}
	return &Set{specs: append([]Spec(nil), specs...)}
}

// Engine returns the engine for sys over store (see rules.Set.Bind).
func (s *Set) Engine(sys string, store *tsdb.Store) *Engine {
	if s == nil || store == nil {
		return nil
	}
	e, _ := s.set.Bind(sys, store, NewEngine(sys, s.specs, store))
	return e
}

func (s *Set) core() *rules.Set[*Engine, SystemStatus, Totals] {
	if s == nil {
		return nil
	}
	return &s.set
}

// Totals, TotalsWhere, Status, and WriteJSON (the /debug/slo document) are
// the rules.Set's, made nil-safe.

func (s *Set) Totals() Totals                                 { return s.core().Totals() }
func (s *Set) TotalsWhere(match func(sys string) bool) Totals { return s.core().TotalsWhere(match) }
func (s *Set) Status() []SystemStatus                         { return s.core().Status() }
func (s *Set) WriteJSON(w io.Writer) error                    { return s.core().WriteJSON(w) }
