package loadgen

import (
	"reflect"
	"testing"
)

// FuzzParseSchedule: whatever the spec, ParseSchedule returns — no panic
// — and a schedule it accepts is a fixed point of its own grammar:
// FormatSchedule renders it back to a spec that parses to the same
// events, every fraction inside [0,1].
func FuzzParseSchedule(f *testing.F) {
	for _, spec := range []string{
		" kill@0.25=1, restore@0.75=1 ",
		"partition@0.3=1,partition@0.35=0:2,slowdisk@0.4=1:50ms,skew@0.5=1:+2s,skew@0.6=0:-1s,heal@0.8=*,heal@0.9=1",
		"flap@0.2=1/0.05",
		"flap@0.9=0/0.5",
		"kill@0.5", "nuke@0.5=1", "kill@1.5=1", "kill@0.5=x", "kill=1",
		"partition@0.3=1:1", "flap@0.2=1/0", "slowdisk@0.4=1:-5s", "skew@0.5=1:fast", "heal@0.8=",
		"kill@NaN=1", "flap@0.1=1/NaN",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		evs, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		for _, ev := range evs {
			if !(ev.After >= 0 && ev.After <= 1) {
				t.Fatalf("%q: event %+v outside the run", spec, ev)
			}
		}
		text := FormatSchedule(evs)
		again, err := ParseSchedule(text)
		if err != nil || !reflect.DeepEqual(again, evs) {
			t.Fatalf("%q → %+v renders as %q, which parses to %+v (%v)", spec, evs, text, again, err)
		}
	})
}
