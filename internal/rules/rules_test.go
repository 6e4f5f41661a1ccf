package rules

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

type testLevels struct{}

func (testLevels) Names() [3]string { return [3]string{"ok", "warn", "page"} }

// States marshal as their names and decode back; an unknown name is an
// error, and an out-of-range level prints as the calm name.
func TestStateJSON(t *testing.T) {
	in := []State[testLevels]{0, 1, 2}
	b, err := json.Marshal(in)
	if err != nil || string(b) != `["ok","warn","page"]` {
		t.Fatalf("marshal = %s, %v", b, err)
	}
	var out []State[testLevels]
	if err := json.Unmarshal(b, &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("unmarshal = %v, %v", out, err)
	}
	var s State[testLevels]
	if err := json.Unmarshal([]byte(`"acted"`), &s); err == nil {
		t.Fatal("unknown state name accepted")
	}
	if got := State[testLevels](7).String(); got != "ok" {
		t.Fatalf("out-of-range level prints %q", got)
	}
}

func TestFields(t *testing.T) {
	var got []string
	collect := func(key, val string) error {
		switch key {
		case "a", "b":
			got = append(got, key+"="+val)
			return nil
		case "bad":
			return errors.New("boom")
		}
		return ErrUnknownKey
	}
	if err := Fields(" a = 1 ,, b=x=y ,", collect); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a=1", "b=x=y"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fields = %v, want %v", got, want)
	}
	for clause, want := range map[string]string{
		"a=1,nokey": `field "nokey" is not key=value`,
		"c=1":       `unknown key "c"`,
		"bad = 2":   `field "bad = 2": boom`,
	} {
		if err := Fields(clause, collect); err == nil || err.Error() != want {
			t.Errorf("Fields(%q) = %v, want %q", clause, err, want)
		}
	}
}

func TestParseList(t *testing.T) {
	parse := func(input string) ([]string, error) {
		return ParseList(input, "pkg", "item", func() []string { return []string{"d1", "d2"} },
			func(clause string) (string, error) {
				if strings.Contains(clause, "!") {
					return "", errors.New("bang")
				}
				return clause, nil
			},
			func(s string) string { return s })
	}
	got, err := parse(" x ;default;; y")
	if want := []string{"x", "d1", "d2", "y"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %v, %v; want %v", got, err, want)
	}
	for input, want := range map[string]string{
		" ; ":        "pkg: empty item",
		"x;x":        `pkg: duplicate item name "x"`,
		"default;d2": `pkg: duplicate item name "d2"`,
		"ok;no!":     `pkg: clause "no!": bang`,
	} {
		if _, err := parse(input); err == nil || err.Error() != want {
			t.Errorf("parse(%q) = %v, want %q", input, err, want)
		}
	}
}
