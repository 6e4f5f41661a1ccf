// Package control closes the loop the observability stack left open: a
// deterministic controller, evaluated once per CP boundary on the modeled
// clock, reads signals from the tsdb series rings (SLO alert states and
// burn rates, delayed-free backlogs, allocator counters — anything the
// store samples) and actuates a bounded set of runtime knobs through an
// Actuator. Policies are declarative clause strings in the repo's
// key=value convention; every decision, fired or suppressed, lands in a
// bounded ring of ActuationRecords so the controller is itself fully
// observable (/debug/control, control.* counters, per-knob series).
//
// Everything here reads only worker-invariant inputs (CP counter, modeled
// time, stable-snapshot-derived series, knob values the controller itself
// set), so actuation streams are byte-identical at any worker width.
package control

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"waflfs/internal/obs/tsdb"
)

// Knob names the controller may actuate. The Actuator implementation
// (wafl's System) owns the hard per-knob bounds; the policy layer only
// validates that an action names a known knob.
const (
	// KnobDelayedBudget is the per-CP delayed-free reclamation budget
	// (Tunables.DelayedFreeBudgetPerCP): shedding it defers metafile-page
	// work out of hot CPs.
	KnobDelayedBudget = "delayed_budget"
	// KnobAllocBatch is the striped allocator's shard batch / refill
	// low-water (Tunables.AllocBatch).
	KnobAllocBatch = "alloc_batch"
	// KnobScrubKick is an impulse counter: raising it runs one on-demand
	// Aggregate.Scrub per increment.
	KnobScrubKick = "scrub_kick"
	// KnobFragEvery is the fragscan sampling period in CPs
	// (ObsOptions.FragEvery): raising it samples shallower.
	KnobFragEvery = "frag_every"
)

// KnownActions lists every actuatable knob, sorted.
func KnownActions() []string {
	return []string{KnobAllocBatch, KnobDelayedBudget, KnobFragEvery, KnobScrubKick}
}

func knownAction(a string) bool {
	for _, k := range KnownActions() {
		if a == k {
			return true
		}
	}
	return false
}

// Step is one actuation increment: absolute ("+8", "-64") or relative to
// the knob's current value ("-25%", "+50%").
type Step struct {
	Amount  float64
	Percent bool
}

// apply returns the stepped (pre-clamp, pre-round) target value.
func (st Step) apply(old float64) float64 {
	if st.Percent {
		return old + old*st.Amount/100
	}
	return old + st.Amount
}

func (st Step) format() string {
	s := strconv.FormatFloat(st.Amount, 'g', -1, 64)
	if st.Amount >= 0 {
		s = "+" + s
	}
	if st.Percent {
		s += "%"
	}
	return s
}

func parseStep(v string) (Step, error) {
	var st Step
	if rest, ok := strings.CutSuffix(v, "%"); ok {
		st.Percent = true
		v = rest
	}
	amt, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return st, err
	}
	st.Amount = amt
	return st, nil
}

// Policy is one declarative control rule: when the signal series breaches
// the threshold for Hold consecutive CP evaluations, step the action knob,
// bounded by Min/Max (on top of the knob's own hard clamps).
type Policy struct {
	Name   string
	Signal string // series suffix pattern under "<sys>."; '*' matches one dot-segment
	Op     string // ">" or "<"
	Value  float64
	Hold   int // consecutive breach evals before acting; also the calm count per downgrade
	Action string
	Step   Step
	Min    float64 // 0 = no policy floor (the knob's hard floor still applies)
	Max    float64 // 0 = no policy ceiling
}

// reservedNames collide with the scalar control.* registry counters and
// the "<sys>.control.knob.*" series namespace.
var reservedNames = map[string]bool{
	"evaluations": true, "actuations": true, "suppressed": true,
	"transitions": true, "knob": true,
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// normalize fills unset optional fields with defaults.
func (p *Policy) normalize() {
	if p.Name == "" {
		p.Name = p.Action
	}
	if p.Op == "" {
		p.Op = ">"
	}
	if p.Hold == 0 {
		p.Hold = 3
	}
}

func (p *Policy) validate() error {
	if !tsdb.ValidName(p.Name) {
		return fmt.Errorf("invalid name %q", p.Name)
	}
	if reservedNames[p.Name] {
		return fmt.Errorf("name %q is reserved", p.Name)
	}
	if !tsdb.ValidPattern(p.Signal) {
		return fmt.Errorf("invalid signal %q", p.Signal)
	}
	for _, seg := range strings.Split(p.Signal, ".") {
		if seg == "" {
			return fmt.Errorf("signal %q has an empty segment", p.Signal)
		}
		if seg != "*" && strings.Contains(seg, "*") {
			return fmt.Errorf("signal %q: '*' must span a whole segment", p.Signal)
		}
	}
	if p.Op != ">" && p.Op != "<" {
		return fmt.Errorf("op %q must be > or <", p.Op)
	}
	if !finite(p.Value) {
		return fmt.Errorf("value %v must be finite", p.Value)
	}
	if p.Hold < 1 {
		return fmt.Errorf("hold %d must be >= 1", p.Hold)
	}
	if !knownAction(p.Action) {
		return fmt.Errorf("unknown action %q", p.Action)
	}
	if p.Step.Amount == 0 || !finite(p.Step.Amount) {
		return fmt.Errorf("step must be a nonzero finite amount")
	}
	if !finite(p.Min) || !finite(p.Max) || p.Min < 0 || p.Max < 0 {
		return fmt.Errorf("min/max must be finite and >= 0")
	}
	if p.Min != 0 && p.Max != 0 && p.Min > p.Max {
		return fmt.Errorf("min %v exceeds max %v", p.Min, p.Max)
	}
	return nil
}

// DefaultPolicies is the stock portfolio, driven entirely off the SLO
// engine's alert-state series so the controller inherits its multi-window
// hysteresis: a clean run (every state 0) can never actuate, while a
// latency warn sheds delayed-free budget and widens the allocator batch,
// a stall warn backs fragscan sampling off, and a recovery page kicks an
// on-demand scrub of every AA cache.
func DefaultPolicies() []Policy {
	return []Policy{
		{Name: "latency_shed", Signal: "slo.latency.vol.*.state", Op: ">", Value: 0.5,
			Hold: 2, Action: KnobDelayedBudget, Step: Step{Amount: -50, Percent: true}, Min: 256},
		{Name: "latency_batch", Signal: "slo.latency.vol.*.state", Op: ">", Value: 0.5,
			Hold: 2, Action: KnobAllocBatch, Step: Step{Amount: 8}, Max: 64},
		{Name: "stall_backoff", Signal: "slo.stall.vol.*.state", Op: ">", Value: 0.5,
			Hold: 2, Action: KnobFragEvery, Step: Step{Amount: 2}, Max: 8},
		{Name: "recovery_scrub", Signal: "slo.recovery.state", Op: ">", Value: 1.5,
			Hold: 1, Action: KnobScrubKick, Step: Step{Amount: 1}, Max: 8},
	}
}

// ParsePolicies parses a waflbench-style policy string: clauses separated
// by ';', each either the literal "default" (expanding DefaultPolicies) or
// a comma-separated list of key=value fields:
//
//	name=shed,signal=slo.latency.vol.*.burn_fast,op=>,value=2.0,hold=3,
//	action=delayed_budget,step=-25%,min=256
//
// Policy names must be unique across the whole string.
func ParsePolicies(input string) ([]Policy, error) {
	var out []Policy
	for _, clause := range strings.Split(input, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if clause == "default" {
			out = append(out, DefaultPolicies()...)
			continue
		}
		p, err := parseClause(clause)
		if err != nil {
			return nil, fmt.Errorf("control: clause %q: %w", clause, err)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("control: empty policy")
	}
	seen := make(map[string]bool, len(out))
	for _, p := range out {
		if seen[p.Name] {
			return nil, fmt.Errorf("control: duplicate policy name %q", p.Name)
		}
		seen[p.Name] = true
	}
	return out, nil
}

func parseClause(clause string) (Policy, error) {
	var p Policy
	for _, field := range strings.Split(clause, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return p, fmt.Errorf("field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "name":
			p.Name = val
		case "signal":
			p.Signal = val
		case "op":
			p.Op = val
		case "value":
			p.Value, err = strconv.ParseFloat(val, 64)
		case "hold":
			p.Hold, err = strconv.Atoi(val)
		case "action":
			p.Action = val
		case "step":
			p.Step, err = parseStep(val)
		case "min":
			p.Min, err = strconv.ParseFloat(val, 64)
		case "max":
			p.Max, err = strconv.ParseFloat(val, 64)
		default:
			return p, fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("field %q: %w", field, err)
		}
	}
	p.normalize()
	if err := p.validate(); err != nil {
		return p, err
	}
	return p, nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String renders the policy in the canonical parseable form.
func (p Policy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s,signal=%s,op=%s,value=%s,hold=%d,action=%s,step=%s",
		p.Name, p.Signal, p.Op, formatFloat(p.Value), p.Hold, p.Action, p.Step.format())
	if p.Min != 0 {
		fmt.Fprintf(&b, ",min=%s", formatFloat(p.Min))
	}
	if p.Max != 0 {
		fmt.Fprintf(&b, ",max=%s", formatFloat(p.Max))
	}
	return b.String()
}

// FormatPolicies renders policies in the canonical form accepted by
// ParsePolicies.
func FormatPolicies(pols []Policy) string {
	parts := make([]string, len(pols))
	for i, p := range pols {
		parts[i] = p.String()
	}
	return strings.Join(parts, ";")
}
