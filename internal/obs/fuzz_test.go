package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseLabels: whatever the label body, ParseLabels returns — no
// panic — and a label set it accepts, rendered back the way the registry
// renders labels (key="Go-quoted value", comma-separated), parses to the
// same pairs.
func FuzzParseLabels(f *testing.F) {
	for _, s := range []string{`collector="0",shard="1"`, `le="+Inf"`, `trace_id="42"`, `a="x\"y\\z",b=""`, `a=`, `a="1",`, `="v"`, ``} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ls, err := ParseLabels(s)
		if err != nil {
			return
		}
		parts := make([]string, len(ls))
		for i, l := range ls {
			parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
		}
		text := strings.Join(parts, ",")
		again, err := ParseLabels(text)
		if err != nil || !reflect.DeepEqual(again, ls) {
			t.Fatalf("%q → %+v renders as %q, which parses to %+v (%v)", s, ls, text, again, err)
		}
	})
}
