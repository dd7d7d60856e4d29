package wal

import (
	"bytes"
	"reflect"
	"testing"

	"dta/internal/core/keyincrement"
	"dta/internal/core/postcarding"
)

// metaImage is the meta file SaveMeta writes for m.
func metaImage(t testing.TB, m *Meta) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// fullMeta is testMeta with every primitive and knob set.
func fullMeta() *Meta {
	m := testMeta()
	m.Translator.KeyIncrement = &keyincrement.Config{Slots: 1 << 8}
	m.Translator.Postcarding = &postcarding.Config{Chunks: 1 << 6, Hops: 3, Values: []uint32{1, 2, 3}}
	m.Translator.PostcardCacheRows = 16
	m.Translator.PostcardRedundancy = 2
	m.Translator.KIAggregationRows = 8
	m.Translator.RateLimit = 1.5e6
	m.Translator.MaxKWRedundancy = 4
	return m
}

// FuzzLoadMeta: no input panics the meta decoder, and what it accepts is
// a fixed point of encode∘decode.
func FuzzLoadMeta(f *testing.F) {
	f.Add(metaImage(f, testMeta()))
	f.Add(metaImage(f, fullMeta()))
	f.Add(metaImage(f, &Meta{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMeta(data)
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := m.encode(&once); err != nil {
			t.Fatalf("accepted meta does not encode: %v", err)
		}
		again, err := decodeMeta(once.Bytes())
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		var twice bytes.Buffer
		if err := again.encode(&twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point: %v", err)
		}
		if third, err := decodeMeta(twice.Bytes()); err != nil || !reflect.DeepEqual(third, again) {
			t.Fatalf("decoded %+v, then %+v (%v)", again, third, err)
		}
	})
}

// TestDecodeMetaTooShort: every proper prefix of a real meta file is
// refused, and the whole file decodes to what was saved.
func TestDecodeMetaTooShort(t *testing.T) {
	for _, m := range []*Meta{testMeta(), fullMeta()} {
		img := metaImage(t, m)
		for cut := 0; cut < len(img); cut++ {
			if got, err := decodeMeta(img[:cut]); err == nil {
				t.Fatalf("%d of %d bytes decoded to %+v", cut, len(img), got)
			}
		}
		if got, err := decodeMeta(img); err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("whole file: %+v (%v), want %+v", got, err, m)
		}
	}
}
