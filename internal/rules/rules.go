// Package rules is the machinery the SLO engine (internal/obs/slo) and the
// closed-loop controller (internal/control) share: one hysteresis state
// machine with named levels, one bounded log, one per-system Set, and the
// key=value clause grammar every spec flag is written in.
package rules

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// Vocab names an engine's three hysteresis levels, calm level first.
type Vocab interface{ Names() [3]string }

// State is one hysteresis level, named by V; higher is a stronger
// response. It prints, marshals, and unmarshals as its name.
type State[V Vocab] int

func (s State[V]) String() string {
	var v V
	if s < 0 || s > 2 {
		return v.Names()[0]
	}
	return v.Names()[s]
}

// MarshalJSON renders the state as its name, so documents read "page"
// instead of 2.
func (s State[V]) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(s.String())), nil
}

// UnmarshalJSON accepts the names MarshalJSON writes.
func (s *State[V]) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	var v V
	for i, n := range v.Names() {
		if n == name {
			*s = State[V](i)
			return nil
		}
	}
	return fmt.Errorf("rules: unknown state %q", name)
}

// Transition is one state-machine edge, stamped with the modeled clock.
type Transition[V Vocab] struct {
	CP       uint64        `json:"cp"`
	At       time.Duration `json:"at_ns"`
	Instance string        `json:"instance"`
	From     State[V]      `json:"from"`
	To       State[V]      `json:"to"`
	// ExemplarTrace/ExemplarLatNS reference a representative sampled op
	// trace (see Exemplar) when the engine links one; 0 otherwise. A page
	// in /debug/slo then links directly to a trace in /debug/optrace.
	ExemplarTrace uint64 `json:"exemplar_trace,omitempty"`
	ExemplarLatNS uint64 `json:"exemplar_lat_ns,omitempty"`
}

// Machine is one rule instance's hysteresis state machine.
type Machine[V Vocab] struct {
	State   State[V]
	SinceCP uint64 // CP of the last transition
	below   int    // consecutive evaluations that desired a lower level
}

// Step feeds one evaluation's desired level and reports whether to move
// there now: an upgrade at once, a downgrade only after hold consecutive
// evaluations desired some lower level, so a signal oscillating around a
// threshold cannot flap the state.
func (m *Machine[V]) Step(desired State[V], hold int) bool {
	if desired >= m.State {
		m.below = 0
		return desired > m.State
	}
	m.below++
	if m.below < hold {
		return false
	}
	m.below = 0
	return true
}

// Move puts the instance at level to as of (cp, at) and returns the edge.
func (m *Machine[V]) Move(instance string, cp uint64, at time.Duration, to State[V]) Transition[V] {
	tr := Transition[V]{CP: cp, At: at, Instance: instance, From: m.State, To: to}
	m.State, m.SinceCP = to, cp
	return tr
}

// ExemplarSource resolves a space name ("<sys>.vol.<name>") to a
// representative trace: ID and modeled latency of the space's current
// worst-bucket sampled op. internal/obs/optrace's Recorder implements it.
type ExemplarSource interface {
	Exemplar(space string) (id, latNS uint64, ok bool)
}

// Exemplar returns src's trace for sys's space; zeros without a source, a
// space, or a trace.
func Exemplar(src ExemplarSource, sys, space string) (id, latNS uint64) {
	if src != nil && space != "" {
		if id, latNS, ok := src.Exemplar(sys + "." + space); ok {
			return id, latNS
		}
	}
	return 0, 0
}

// logCap bounds every Log.
const logCap = 128

// Log keeps the newest logCap entries, oldest first, and counts every
// entry ever added.
type Log[T any] struct {
	entries []T
	added   uint64
}

// Add appends x, evicting the oldest entry when the log is full.
func (l *Log[T]) Add(x T) {
	if len(l.entries) == logCap {
		l.entries = append(l.entries[:0], l.entries[1:]...)
	}
	l.entries = append(l.entries, x)
	l.added++
}

// Added counts every entry ever added, evicted ones included.
func (l *Log[T]) Added() uint64 { return l.added }

// Entries returns a copy of the kept entries, oldest first; nil when none.
func (l *Log[T]) Entries() []T { return append([]T(nil), l.entries...) }
