package dta

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"dta/internal/wal"
)

// TestNoGoroutineOutlivesClose: closing what a deployment started stops
// every goroutine it started — engine shard workers, the WAL flusher —
// for a System with an engine, an HACluster with an engine, and a System
// with a log attached (and an engine over it). A System whose push
// notifications were consumed starts none. A restart's log reader has
// exited when Recover returns, whether the replay succeeded, aborted on
// log damage or was refused before it began.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	drive := func(t *testing.T, rep interface {
		KeyWrite(Key, []byte, int) error
		Increment(Key, uint64, int) error
		Append(uint32, []byte) error
	}) {
		t.Helper()
		for i := uint64(0); i < 2000; i++ {
			err := rep.KeyWrite(KeyFromUint64(i), keyData(i), 2)
			if err == nil {
				err = rep.Increment(KeyFromUint64(i%50), 1, 2)
			}
			if err == nil {
				err = rep.Append(uint32(i%4), keyData(i))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"system+engine", func(t *testing.T) {
			s, err := New(fullOptions())
			if err != nil {
				t.Fatal(err)
			}
			eng, err := s.Engine(EngineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, eng.Reporter(1))
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"hacluster+engine", func(t *testing.T) {
			c, err := NewHACluster(4, 3, haOptions())
			if err != nil {
				t.Fatal(err)
			}
			eng, err := c.Engine(EngineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, eng.Reporter(1))
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"system+wal", func(t *testing.T) {
			s, err := New(fullOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.WithWAL(t.TempDir(), WALPolicy{}); err != nil {
				t.Fatal(err)
			}
			drive(t, s.Reporter(1))
			eng, err := s.Engine(EngineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, eng.Reporter(2))
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		}},
		{"system+events", func(t *testing.T) {
			s, err := New(fullOptions())
			if err != nil {
				t.Fatal(err)
			}
			ch := s.Events()
			if err := s.Reporter(1).KeyWriteImmediate(KeyFromUint64(5), []byte{1, 2, 3, 4}, 1); err != nil {
				t.Fatal(err)
			}
			<-ch
		}},
		{"recover", func(t *testing.T) {
			dir := writeLog(t, replayOptions(), newBatchStream(5502, 3000), 0)
			if _, err := RecoverSystem(dir); err != nil {
				t.Fatal(err)
			}
		}},
		{"recover+abort", func(t *testing.T) {
			if _, err := RecoverSystem(damagedLog(t)); !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("RecoverSystem over a damaged log: %v", err)
			}
		}},
		{"recover+wal", func(t *testing.T) {
			s, err := New(fullOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.WithWAL(t.TempDir(), WALPolicy{}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Recover(t.TempDir()); err == nil {
				t.Fatal("Recover after WithWAL accepted")
			}
			if err := s.CloseWAL(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run(t)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
