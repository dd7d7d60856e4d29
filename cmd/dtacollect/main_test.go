package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"dta"
	"dta/internal/snapshot"
)

// collect runs the collector for about a second on loopback and returns
// what it printed.
func collect(t *testing.T, cfg config) string {
	t.Helper()
	cfg.duration, cfg.rate, cfg.listen = time.Second, 20000, "127.0.0.1:0"
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return out.String()
}

// number is the integer the first submatch of re finds in out.
func number(t *testing.T, out, re string) uint64 {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q in output:\n%s", re, out)
	}
	n, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCollectRoundTrip: a live run with a batch-synced log and a
// snapshot leaves a log directory that RecoverSystem turns back into
// stores byte-identical to the snapshot image, and a restart with
// -recover -checkpoint replays exactly the records the first run made
// durable before it checkpoints its own.
func TestCollectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	walDir, snapPath := filepath.Join(dir, "wal"), filepath.Join(dir, "dta.snap")

	first := collect(t, config{walDir: walDir, walSync: "batch", snapPath: snapPath})
	durable := number(t, first, `wal: (\d+) records durable`)
	if last := number(t, first, `durable \(LSN (\d+)\)`); durable == 0 || durable != last {
		t.Fatalf("wal: %d of %d records durable, want all and > 0\n%s", durable, last, first)
	}

	img, err := snapshot.Load(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dta.RecoverSystem(walDir)
	if err != nil {
		t.Fatal(err)
	}
	got := snapshot.View(sys.Host())
	for _, s := range []struct {
		name      string
		want, got []byte
	}{
		{"key-write", img.KeyWriteBuf, got.KeyWriteBuf},
		{"key-increment", img.KeyIncBuf, got.KeyIncBuf},
		{"postcarding", img.PostcardBuf, got.PostcardBuf},
		{"append", img.AppendBuf, got.AppendBuf},
	} {
		if len(s.want) == 0 || !bytes.Equal(s.want, s.got) {
			t.Errorf("%s store: recovered %d bytes differ from the %d-byte image", s.name, len(s.got), len(s.want))
		}
	}

	second := collect(t, config{walDir: walDir, walSync: "batch", recover: true, checkpoint: true})
	if n := number(t, second, `recovered (\d+) reports`); n != durable {
		t.Errorf("restart recovered %d reports, want the first run's durable LSN %d\n%s", n, durable, second)
	}
	if lsn := number(t, second, `checkpoint: LSN (\d+) written`); lsn <= durable {
		t.Errorf("checkpoint at LSN %d, want above the recovered %d\n%s", lsn, durable, second)
	}
}
