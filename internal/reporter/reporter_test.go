package reporter

import (
	"testing"

	"dta/internal/wire"
)

func newReporter() *Reporter {
	return New(Config{
		SwitchID:    42,
		SrcIP:       [4]byte{10, 0, 0, 42},
		CollectorIP: [4]byte{10, 9, 0, 1},
		SrcPort:     5042,
	})
}

func TestKeyWriteFrame(t *testing.T) {
	r := newReporter()
	buf := make([]byte, wire.MaxReportLen)
	n, err := r.KeyWrite(buf, wire.KeyFromUint64(7), []byte{1, 2, 3, 4}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	var p wire.ParsedFrame
	if err := wire.DecodeFrame(buf[:n], &p); err != nil {
		t.Fatal(err)
	}
	if !p.IsDTA || p.Report.Header.Primitive != wire.PrimKeyWrite {
		t.Fatalf("frame: %+v", p.Report.Header)
	}
	if p.Report.Header.Flags&wire.FlagImmediate == 0 {
		t.Error("immediate flag missing")
	}
	if p.IP.Src != [4]byte{10, 0, 0, 42} || p.IP.Dst != [4]byte{10, 9, 0, 1} {
		t.Errorf("addressing: %+v", p.IP)
	}
	if p.Report.KeyWrite.Redundancy != 2 {
		t.Error("redundancy lost")
	}
}

func TestPostcardCarriesSwitchID(t *testing.T) {
	r := newReporter()
	buf := make([]byte, wire.MaxReportLen)
	n, err := r.Postcard(buf, wire.KeyFromUint64(1), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var p wire.ParsedFrame
	if err := wire.DecodeFrame(buf[:n], &p); err != nil {
		t.Fatal(err)
	}
	if p.Report.Postcard.Value != 42 {
		t.Errorf("postcard value = %d, want switch ID 42", p.Report.Postcard.Value)
	}
	if p.Report.Postcard.Hop != 2 || p.Report.Postcard.PathLen != 5 {
		t.Errorf("postcard: %+v", p.Report.Postcard)
	}
}

func TestAppendAndIncrementFrames(t *testing.T) {
	r := newReporter()
	buf := make([]byte, wire.MaxReportLen)
	n, err := r.Append(buf, 9, []byte{5, 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	var p wire.ParsedFrame
	if err := wire.DecodeFrame(buf[:n], &p); err != nil {
		t.Fatal(err)
	}
	if p.Report.Append.ListID != 9 || len(p.Report.Data) != 2 {
		t.Errorf("append: %+v", p.Report.Append)
	}

	n, err = r.KeyIncrement(buf, wire.KeyFromUint64(3), 77, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.DecodeFrame(buf[:n], &p); err != nil {
		t.Fatal(err)
	}
	if p.Report.KeyIncrement.Delta != 77 || p.Report.KeyIncrement.Redundancy != 2 {
		t.Errorf("increment: %+v", p.Report.KeyIncrement)
	}
	if r.Sent != 2 {
		t.Errorf("sent = %d, want 2", r.Sent)
	}
}

func TestIPIDIncrements(t *testing.T) {
	r := newReporter()
	buf := make([]byte, wire.MaxReportLen)
	var ids []uint16
	for i := 0; i < 3; i++ {
		n, _ := r.Append(buf, 0, []byte{1}, false)
		var p wire.ParsedFrame
		if err := wire.DecodeFrame(buf[:n], &p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.IP.ID)
	}
	if ids[0] == ids[1] || ids[1] == ids[2] {
		t.Errorf("IP IDs not advancing: %v", ids)
	}
}

func BenchmarkEncapsulateKeyWrite(b *testing.B) {
	r := newReporter()
	buf := make([]byte, wire.MaxReportLen)
	data := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.KeyWrite(buf, wire.KeyFromUint64(uint64(i)), data, 2, false); err != nil {
			b.Fatal(err)
		}
	}
}
