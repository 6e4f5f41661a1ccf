package rules

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Engine is what a Set asks of one system's engine.
type Engine[S, T any] interface {
	Status() S  // the engine's status report
	Tally(t *T) // adds the engine's activity to t as one more system
}

// Set holds one portfolio's engines, one per system (arm), each bound to
// the store it evaluates (a *tsdb.Store, compared by identity). A Set is
// shared across every arm of an experiment run so artifact gates can split
// totals by arm-name prefix. The zero Set is empty and ready to use; every
// method but Bind is nil-safe.
type Set[E Engine[S, T], S, T any] struct {
	mu      sync.Mutex
	engines map[string]bound[E]
}

type bound[E any] struct {
	engine E
	store  any
}

// Bind returns the engine for sys. A system re-armed on the store its
// engine is bound to — a remount brings a fresh registry but keeps the
// store — keeps that engine, with its instance state and logs, and Bind
// reports it reused. Otherwise fresh becomes sys's engine: for a new
// system, or in place of the old engine when sys is re-armed on a
// different store.
func (s *Set[E, S, T]) Bind(sys string, store any, fresh E) (engine E, reused bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.engines[sys]; ok && prev.store == store {
		return prev.engine, true
	}
	if s.engines == nil {
		s.engines = map[string]bound[E]{}
	}
	s.engines[sys] = bound[E]{fresh, store}
	return fresh, false
}

// members lists the engines of the systems whose name passes match,
// sorted by system name.
func (s *Set[E, S, T]) members(match func(sys string) bool) []E {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name := range s.engines {
		if match(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]E, len(names))
	for i, name := range names {
		out[i] = s.engines[name].engine
	}
	return out
}

func all(string) bool { return true }

// Totals sums activity over every system in the set.
func (s *Set[E, S, T]) Totals() T { return s.TotalsWhere(all) }

// TotalsWhere sums activity over the systems whose name passes match; the
// artifact gate uses it to split crash arms from clean ones.
func (s *Set[E, S, T]) TotalsWhere(match func(sys string) bool) T {
	var t T
	for _, e := range s.members(match) {
		e.Tally(&t)
	}
	return t
}

// Status reports every engine, sorted by system name.
func (s *Set[E, S, T]) Status() []S {
	if s == nil {
		return nil
	}
	engines := s.members(all)
	out := make([]S, 0, len(engines))
	for _, e := range engines {
		out = append(out, e.Status())
	}
	return out
}

// Doc is the status document a Set writes.
type Doc[S, T any] struct {
	Totals  T   `json:"totals"`
	Systems []S `json:"systems"`
}

// WriteJSON writes the set's Doc: totals, then every system's report.
// Byte-identical for identical evaluation histories, so the
// serial-equivalence test compares it directly across worker widths.
func (s *Set[E, S, T]) WriteJSON(w io.Writer) error {
	doc := Doc[S, T]{Totals: s.Totals(), Systems: s.Status()}
	if doc.Systems == nil {
		doc.Systems = []S{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
