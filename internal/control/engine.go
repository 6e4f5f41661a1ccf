package control

import (
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"waflfs/internal/obs/tsdb"
	"waflfs/internal/rules"
)

// actLevels names the controller's actuation levels.
type actLevels struct{}

func (actLevels) Names() [3]string { return [3]string{"ok", "armed", "acted"} }

// State is the actuation level of one policy instance, on the SLO engine's
// hysteresis machine (rules.Machine): a breach arms the instance
// immediately, Hold consecutive breaches fire the knob (acted), and Hold
// consecutive calm evaluations step back down one level — so a signal
// oscillating around its threshold cannot flap the knob every CP.
type State = rules.State[actLevels]

const (
	StateOK State = iota
	StateArmed
	StateActed
)

// Transition is one actuation-level edge.
type Transition = rules.Transition[actLevels]

// KnobSpec is an Actuator's metadata for one knob: hard clamps and the
// largest absolute change one actuation may apply. Policy min/max narrow
// the clamps further; they can never widen them.
type KnobSpec struct {
	Name    string  `json:"name"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	MaxStep float64 `json:"max_step"` // 0 = unlimited
}

// Actuator is the bounded surface the controller may touch. wafl's System
// implements it over the runtime allocator/CP knobs. Knob values are
// integral in practice; SetKnob receives a pre-rounded, pre-clamped value
// and returns what was actually applied (ok=false rejects the actuation).
type Actuator interface {
	Knobs() []KnobSpec
	Knob(name string) (float64, bool)
	SetKnob(name string, v float64) (float64, bool)
}

// ActuationRecord is the full provenance of one actuation decision —
// fired or suppressed — kept in a bounded per-engine ring.
type ActuationRecord struct {
	CP       uint64        `json:"cp"`
	At       time.Duration `json:"at_ns"`
	Policy   string        `json:"policy"` // canonical clause
	Instance string        `json:"instance"`
	Signal   string        `json:"signal"` // full series name read
	Value    float64       `json:"value"`  // signal value at decision time
	Knob     string        `json:"knob"`
	Old      float64       `json:"old"`
	New      float64       `json:"new"`
	Fired    bool          `json:"fired"`
	// Reason is "applied" for fired records; suppressed records carry why
	// the knob did not move ("clamped", "no_knob", "rejected").
	Reason string `json:"reason"`
	// ExemplarTrace/ExemplarLatNS reference a representative sampled op
	// trace from the signal's volume at decision time, when an
	// ExemplarSource is wired; 0 otherwise.
	ExemplarTrace uint64 `json:"exemplar_trace,omitempty"`
	ExemplarLatNS uint64 `json:"exemplar_lat_ns,omitempty"`
}

// flapWindow is how many trailing transitions of one instance must
// alternate armed↔acted (with no ok between) to flag it as flapping.
const flapWindow = 4

// instance is one live rule: a policy bound to a concrete signal series.
type instance struct {
	pol    *Policy
	name   string // policy name, plus ".<captures>" for wildcard signals
	series string // full series name under "<sys>."
	space  string // "vol.<name>" when extractable from the signal; exemplar key

	rules.Machine[actLevels]
	streak    int // consecutive breach evals since the last fire/calm
	lastValue float64
}

// Engine evaluates a policy portfolio for one system (arm) against its
// tsdb store and actuator. All methods are nil-safe; evaluation is
// deterministic given the store contents and the knob trajectory, which
// the engine itself drives — so the actuation stream is byte-identical at
// any worker width.
type Engine struct {
	mu    sync.Mutex
	sys   string
	store *tsdb.Store
	act   Actuator
	pols  []Policy

	insts   []*instance
	instKey int // store.NumSeries() at last expansion

	evals, acts, suppr uint64
	translog           rules.Log[Transition]
	records            rules.Log[ActuationRecord]
	exem               rules.ExemplarSource
	// knobCache is the knob values as of the last Evaluate. Status reads
	// it instead of the live actuator so HTTP handlers never race the CP
	// thread's knob mutations.
	knobCache []KnobStatus
}

// NewEngine builds an engine for one system. Returns nil when there is
// nothing to do (no policies, store, or actuator), which every method
// tolerates.
func NewEngine(sys string, pols []Policy, store *tsdb.Store, act Actuator) *Engine {
	if len(pols) == 0 || store == nil || act == nil {
		return nil
	}
	e := &Engine{sys: sys, store: store, act: act, pols: append([]Policy(nil), pols...)}
	for i := range e.pols {
		e.pols[i].normalize()
	}
	e.instKey = -1 // force expansion on first Evaluate
	return e
}

// SetExemplarSource wires a trace exemplar source: subsequent actuation
// records on volume-scoped signals carry a representative trace ID.
// Nil-safe.
func (e *Engine) SetExemplarSource(src rules.ExemplarSource) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.exem = src
	e.mu.Unlock()
}

// setActuator rebinds the knob surface — used when a system is re-armed
// (fresh System, same store) so instance state survives while actuation
// lands on the live knobs.
func (e *Engine) setActuator(act Actuator) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.act = act
	e.mu.Unlock()
}

// matchSignal matches a policy signal pattern against a series suffix
// segment-wise: '*' matches exactly one dot-segment. Returns the wildcard
// captures when the suffix matches.
func matchSignal(pattern, suffix string) ([]string, bool) {
	ps := strings.Split(pattern, ".")
	ss := strings.Split(suffix, ".")
	if len(ps) != len(ss) {
		return nil, false
	}
	var caps []string
	for i, p := range ps {
		if p == "*" {
			caps = append(caps, ss[i])
			continue
		}
		if p != ss[i] {
			return nil, false
		}
	}
	return caps, true
}

// spaceOf extracts the "vol.<name>" space from a series suffix, if any,
// for the exemplar join.
func spaceOf(suffix string) string {
	segs := strings.Split(suffix, ".")
	for i, s := range segs {
		if s == "vol" && i+1 < len(segs) {
			return "vol." + segs[i+1]
		}
	}
	return ""
}

// expand resolves signal patterns against the store's current series list.
// Called whenever the series count changes (series are only ever added);
// existing instances keep their state across expansions.
func (e *Engine) expand() {
	old := make(map[string]*instance, len(e.insts))
	for _, in := range e.insts {
		old[in.name] = in
	}
	e.insts = e.insts[:0]
	sysPrefix := e.sys + "."
	names := e.store.SeriesWithPrefix(sysPrefix)
	for i := range e.pols {
		pol := &e.pols[i]
		for _, series := range names {
			suffix := series[len(sysPrefix):]
			caps, ok := matchSignal(pol.Signal, suffix)
			if !ok {
				continue
			}
			name := pol.Name
			if len(caps) > 0 {
				name += "." + strings.Join(caps, ".")
			}
			in := &instance{pol: pol, name: name, series: series, space: spaceOf(suffix)}
			if prev, ok := old[in.name]; ok {
				in.Machine, in.streak = prev.Machine, prev.streak
			}
			e.insts = append(e.insts, in)
		}
	}
	sort.Slice(e.insts, func(i, j int) bool { return e.insts[i].name < e.insts[j].name })
}

// Evaluate runs every policy instance against the signal values at (cp,
// at), actuates where the hysteresis allows, and writes the resulting
// state/signal series (plus one series per knob) back into the store
// under "<sys>.control.*". Call once per CP, after the store's Sample and
// the SLO engine's Evaluate for the same CP — the alert-state series the
// default portfolio reads are then current.
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
	e.knobCache = e.knobCache[:0]
	for _, k := range e.act.Knobs() {
		if v, ok := e.act.Knob(k.Name); ok {
			e.store.Observe(e.sys+".control.knob."+k.Name, cp, at, v)
			e.knobCache = append(e.knobCache, KnobStatus{KnobSpec: k, Value: v})
		}
	}
}

func (e *Engine) evalInstance(in *instance, cp uint64, at time.Duration) {
	e.evals++
	v, _ := e.store.ValueAt(in.series, cp)
	in.lastValue = v
	breach := (in.pol.Op == ">" && v > in.pol.Value) ||
		(in.pol.Op == "<" && v < in.pol.Value)
	// A breach desires at least armed; a calm evaluation desires one level
	// down. The shared machine then arms at once and steps down only after
	// Hold consecutive calm evaluations; acted is entered by actuate alone.
	desired := max(in.State-1, StateOK)
	if breach {
		desired = max(in.State, StateArmed)
	}
	if in.Step(desired, in.pol.Hold) {
		e.transition(in, cp, at, desired)
	}
	if breach {
		in.streak++
		if in.streak >= in.pol.Hold {
			// The hold streak resets on every attempt, fired or suppressed,
			// so re-fires are rate-limited to one per Hold breaches — the
			// temporal half of the step-size limit.
			e.actuate(in, cp, at, v)
			in.streak = 0
		}
	} else {
		in.streak = 0
	}
	base := e.sys + ".control." + in.name
	e.store.Observe(base+".state", cp, at, float64(in.State))
	e.store.Observe(base+".signal", cp, at, v)
}

func (e *Engine) knobSpec(name string) (KnobSpec, bool) {
	for _, k := range e.act.Knobs() {
		if k.Name == name {
			return k, true
		}
	}
	return KnobSpec{}, false
}

// actuate attempts one knob step: the policy step is clamped by the
// knob's MaxStep, then by the intersection of the knob's hard bounds and
// the policy's min/max, then rounded (knobs are integral). A target equal
// to the current value is a suppressed decision; both outcomes emit an
// ActuationRecord.
func (e *Engine) actuate(in *instance, cp uint64, at time.Duration, v float64) {
	rec := ActuationRecord{
		CP: cp, At: at, Policy: in.pol.String(), Instance: in.name,
		Signal: in.series, Value: v, Knob: in.pol.Action,
	}
	rec.ExemplarTrace, rec.ExemplarLatNS = rules.Exemplar(e.exem, e.sys, in.space)
	old, ok := e.act.Knob(in.pol.Action)
	if !ok {
		rec.Reason = "no_knob"
		e.suppress(rec)
		return
	}
	rec.Old, rec.New = old, old
	k, _ := e.knobSpec(in.pol.Action)
	target := in.pol.Step.apply(old)
	if k.MaxStep > 0 && math.Abs(target-old) > k.MaxStep {
		if target > old {
			target = old + k.MaxStep
		} else {
			target = old - k.MaxStep
		}
	}
	lo, hi := k.Min, k.Max
	if in.pol.Min != 0 && in.pol.Min > lo {
		lo = in.pol.Min
	}
	if in.pol.Max != 0 && in.pol.Max < hi {
		hi = in.pol.Max
	}
	if target < lo {
		target = lo
	}
	if target > hi {
		target = hi
	}
	target = math.Round(target)
	if target == old {
		rec.Reason = "clamped"
		e.suppress(rec)
		return
	}
	applied, ok := e.act.SetKnob(in.pol.Action, target)
	if !ok {
		rec.Reason = "rejected"
		e.suppress(rec)
		return
	}
	rec.New, rec.Fired, rec.Reason = applied, true, "applied"
	e.acts++
	e.records.Add(rec)
	if in.State != StateActed {
		e.transition(in, cp, at, StateActed)
	}
}

func (e *Engine) suppress(rec ActuationRecord) {
	e.suppr++
	e.records.Add(rec)
}

func (e *Engine) transition(in *instance, cp uint64, at time.Duration, to State) {
	e.translog.Add(in.Move(in.name, cp, at, to))
}

// flapping reports whether an instance's trailing transitions alternate
// armed↔acted with no ok between — the signature of a knob-chasing
// oscillation the hysteresis failed to damp (wafltop -snapshot exits
// nonzero on it).
func flapping(log []Transition, name string) bool {
	var tos []State
	for _, tr := range log {
		if tr.Instance == name {
			tos = append(tos, tr.To)
		}
	}
	if len(tos) < flapWindow {
		return false
	}
	tos = tos[len(tos)-flapWindow:]
	for i, to := range tos {
		if to == StateOK {
			return false
		}
		if i > 0 && to == tos[i-1] {
			return false
		}
	}
	return true
}

// Counter accessors feed the control.* registry metrics; all nil-safe.

func (e *Engine) Evaluations() uint64 { return e.counter(func(e *Engine) uint64 { return e.evals }) }
func (e *Engine) Actuations() uint64  { return e.counter(func(e *Engine) uint64 { return e.acts }) }
func (e *Engine) Suppressed() uint64  { return e.counter(func(e *Engine) uint64 { return e.suppr }) }
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

// InstanceStatus is the reported state of one policy instance.
type InstanceStatus struct {
	Name     string  `json:"name"`
	Policy   string  `json:"policy"`
	Signal   string  `json:"signal"`
	State    string  `json:"state"`
	SinceCP  uint64  `json:"since_cp"`
	Value    float64 `json:"value"`
	Streak   int     `json:"streak"`
	Flapping bool    `json:"flapping"`
}

// KnobStatus is one knob's current value and bounds.
type KnobStatus struct {
	KnobSpec
	Value float64 `json:"value"`
}

// SystemStatus is one engine's full report.
type SystemStatus struct {
	System      string            `json:"system"`
	Evaluations uint64            `json:"evaluations"`
	Actuations  uint64            `json:"actuations"`
	Suppressed  uint64            `json:"suppressed"`
	Knobs       []KnobStatus      `json:"knobs"`
	Instances   []InstanceStatus  `json:"instances"`
	Records     []ActuationRecord `json:"records,omitempty"`
	Transitions []Transition      `json:"transitions,omitempty"`
}

// Flapping reports whether any instance is mid-flap.
func (st SystemStatus) Flapping() bool {
	for _, in := range st.Instances {
		if in.Flapping {
			return true
		}
	}
	return false
}

// Status snapshots the engine; instance and knob order is deterministic.
func (e *Engine) Status() SystemStatus {
	if e == nil {
		return SystemStatus{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := SystemStatus{
		System:      e.sys,
		Evaluations: e.evals,
		Actuations:  e.acts,
		Suppressed:  e.suppr,
		Records:     e.records.Entries(),
		Transitions: e.translog.Entries(),
	}
	st.Knobs = append(st.Knobs, e.knobCache...)
	for _, in := range e.insts {
		st.Instances = append(st.Instances, InstanceStatus{
			Name: in.name, Policy: in.pol.Name, Signal: in.series,
			State: in.State.String(), SinceCP: in.SinceCP,
			Value: in.lastValue, Streak: in.streak,
			Flapping: flapping(st.Transitions, in.name),
		})
	}
	return st
}

// Totals aggregates actuation activity across a Set's engines.
type Totals struct {
	Systems     int    `json:"systems"`
	Instances   int    `json:"instances"`
	Evaluations uint64 `json:"evaluations"`
	Actuations  uint64 `json:"actuations"`
	Suppressed  uint64 `json:"suppressed"`
	Transitions uint64 `json:"transitions"`
	ActiveArmed int    `json:"active_armed"`
	ActiveActed int    `json:"active_acted"`
}

// Tally adds the engine's actuation activity to t.
func (e *Engine) Tally(t *Totals) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t.Systems++
	t.Instances += len(e.insts)
	t.Evaluations += e.evals
	t.Actuations += e.acts
	t.Suppressed += e.suppr
	t.Transitions += e.translog.Added()
	for _, in := range e.insts {
		switch in.State {
		case StateArmed:
			t.ActiveArmed++
		case StateActed:
			t.ActiveActed++
		}
	}
}

// Doc is the /debug/control document.
type Doc = rules.Doc[SystemStatus, Totals]

// Set holds one policy portfolio and its engines, one per system (arm), in
// a rules.Set: see there for the re-arm rule, the totals, and the status
// document. All methods are nil-safe.
type Set struct {
	pols []Policy
	set  rules.Set[*Engine, SystemStatus, Totals]
}

// NewSet builds a set from a portfolio; nil for an empty one.
func NewSet(pols []Policy) *Set {
	if len(pols) == 0 {
		return nil
	}
	return &Set{pols: append([]Policy(nil), pols...)}
}

// Engine returns the engine for sys over store (see rules.Set.Bind),
// actuating act. An engine kept across a re-arm is rebound to act, so its
// instance state and logs survive while actuation lands on the live knobs.
func (s *Set) Engine(sys string, store *tsdb.Store, act Actuator) *Engine {
	if s == nil || store == nil || act == nil {
		return nil
	}
	e, reused := s.set.Bind(sys, store, NewEngine(sys, s.pols, store, act))
	if reused {
		e.setActuator(act)
	}
	return e
}

func (s *Set) core() *rules.Set[*Engine, SystemStatus, Totals] {
	if s == nil {
		return nil
	}
	return &s.set
}

// Totals, TotalsWhere, Status, and WriteJSON (the /debug/control
// document) are the rules.Set's, made nil-safe.

func (s *Set) Totals() Totals                                 { return s.core().Totals() }
func (s *Set) TotalsWhere(match func(sys string) bool) Totals { return s.core().TotalsWhere(match) }
func (s *Set) Status() []SystemStatus                         { return s.core().Status() }
func (s *Set) WriteJSON(w io.Writer) error                    { return s.core().WriteJSON(w) }
