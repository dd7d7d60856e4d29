package journal

import (
	"bytes"
	"testing"
)

// dumpImage is a real three-event dump, as DumpFile writes it.
func dumpImage(t testing.TB) ([]byte, []Record) {
	t.Helper()
	j := New(8)
	cause := j.NewCause()
	j.Publish(CompHA, EvSetDown, SevWarn, 2, cause, 7, 0, 0)
	j.Publish(CompWAL, EvCheckpoint, SevInfo, -1, 0, 123, 4, 5)
	j.Publish(CompTranslator, EvEpochBump, SevInfo, 1, cause, 3, 0, 0)
	events, _, _ := j.Since(0, nil)
	recs := make([]Record, len(events))
	for i := range events {
		recs[i] = events[i].Record()
	}
	var b bytes.Buffer
	if err := writeDump(&b, recs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), recs
}

// FuzzReadDump: no input panics the dump decoder, and what it accepts is
// a fixed point of encode∘decode — writing the records back out and
// reading them again gives the same bytes.
func FuzzReadDump(f *testing.F) {
	img, _ := dumpImage(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add([]byte(`{"seq":1,"time":"2024-01-02T03:04:05.000000006+01:00","args":[1,2,3]}` + "\n" + `{"sev":"warn"}`))
	f.Add([]byte(`]`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeDump(data)
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := writeDump(&once, recs); err != nil {
			t.Fatalf("accepted records do not encode: %v", err)
		}
		again, err := decodeDump(once.Bytes())
		if err != nil || len(again) != len(recs) {
			t.Fatalf("re-read %d of %d records: %v", len(again), len(recs), err)
		}
		if err := writeDump(&twice, again); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

// TestDecodeDumpTooShort: cut a real dump at every length. The decoder
// returns exactly the records whose line ends inside the cut, and an
// error exactly when the cut falls inside a record.
func TestDecodeDumpTooShort(t *testing.T) {
	img, want := dumpImage(t)
	var ends []int // record i's object ends at img[ends[i]] (its newline)
	for i, c := range img {
		if c == '\n' {
			ends = append(ends, i)
		}
	}
	if len(ends) != len(want) {
		t.Fatalf("%d lines for %d records", len(ends), len(want))
	}
	for cut := 0; cut <= len(img); cut++ {
		recs, err := decodeDump(img[:cut])
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		between := cut == 0 || (whole > 0 && cut <= ends[whole-1]+1)
		if len(recs) != whole || (err == nil) != between {
			t.Fatalf("cut at %d: %d records, err %v; want %d records, error %v", cut, len(recs), err, whole, !between)
		}
		for i := range recs {
			if !recs[i].Time.Equal(want[i].Time) {
				t.Fatalf("cut at %d: record %d time %v, want %v", cut, i, recs[i].Time, want[i].Time)
			}
			got := recs[i]
			got.Time = want[i].Time
			if got != want[i] {
				t.Fatalf("cut at %d: record %d = %+v, want %+v", cut, i, recs[i], want[i])
			}
		}
	}
}
