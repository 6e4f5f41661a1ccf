package rules

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownKey is what a Fields callback returns for a key it does not
// take.
var ErrUnknownKey = errors.New("unknown key")

// Fields splits a clause into comma-separated key=value fields and hands
// each to set with its key and value trimmed; empty fields are skipped. A
// field with no '=' is an error, as is a key set rejects with
// ErrUnknownKey; any other error from set comes back naming its field.
func Fields(clause string, set func(key, val string) error) error {
	for _, field := range strings.Split(clause, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if err := set(key, val); errors.Is(err, ErrUnknownKey) {
			return fmt.Errorf("unknown key %q", key)
		} else if err != nil {
			return fmt.Errorf("field %q: %w", field, err)
		}
	}
	return nil
}

// ParseList parses a ';'-separated clause list: the clause "default"
// expands to defaults(), and every other non-empty clause goes through
// parse. An input with no clauses is an error, and so is a name used
// twice. Errors carry the package prefix pkg and call one item a noun
// ("spec", "policy").
func ParseList[T any](input, pkg, noun string, defaults func() []T,
	parse func(clause string) (T, error), name func(T) string) ([]T, error) {
	var out []T
	for _, clause := range strings.Split(input, ";") {
		clause = strings.TrimSpace(clause)
		switch clause {
		case "":
		case "default":
			out = append(out, defaults()...)
		default:
			x, err := parse(clause)
			if err != nil {
				return nil, fmt.Errorf("%s: clause %q: %w", pkg, clause, err)
			}
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty %s", pkg, noun)
	}
	seen := make(map[string]bool, len(out))
	for _, x := range out {
		if seen[name(x)] {
			return nil, fmt.Errorf("%s: duplicate %s name %q", pkg, noun, name(x))
		}
		seen[name(x)] = true
	}
	return out, nil
}
