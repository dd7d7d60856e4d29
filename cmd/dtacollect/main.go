// Command dtacollect runs a live DTA collector over UDP on the loopback
// interface, with built-in INT reporters generating traffic.
//
// Deployment mapping: in a datacenter the translator is the collector's
// ToR switch and reports arrive as raw Ethernet; here the kernel provides
// L2–L4, so reporters send the DTA portion (base header + sub-header +
// payload) as UDP datagrams to the collector's socket. The collector is
// a dta.System behind a one-shard ingest engine: the socket loop hands
// each datagram to an engine Reporter (SubmitDatagram), which decodes it
// with the same wire code, and the shard worker performs the DTA→RDMA
// translation against the in-process collector memory.
//
//	dtacollect -duration 5s -rate 50000 -snapshot /tmp/dta.snap
//
// The resulting snapshot can be queried with dtaquery.
//
// With -wal every admitted report is also logged to a segmented
// write-ahead log, so a crash loses at most what the -wal-sync policy
// permits; -recover replays an existing log (checkpoint + tail) into
// the stores before collecting (System.Recover), and -checkpoint writes
// a fresh checkpoint (reclaiming covered segments) on exit:
//
//	dtacollect -duration 5s -wal /tmp/dta.wal -wal-sync interval=100ms
//	dtacollect -duration 5s -wal /tmp/dta.wal -recover -checkpoint
//
// The log directory can be inspected with dtarecover (-events shows the
// recovery's skipped records and the checkpoint's reclaimed segments)
// and queried directly with dtaquery -wal.
//
// With -obs the collector serves the system's full observability
// surface over HTTP (System.ObsMux): Prometheus-text metrics at
// /metrics, expvar at /debug/vars, pprof at /debug/pprof/, the flight
// recorder at /debug/events, sampled traces at /debug/traces and the
// health verdict at /healthz — poll it live with dtastat:
//
//	dtacollect -duration 60s -obs 127.0.0.1:9090 &
//	dtastat -addr 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"dta"
	"dta/internal/snapshot"
	"dta/internal/telemetry/inttel"
	"dta/internal/telemetry/netseer"
	"dta/internal/trace"
	"dta/internal/wire"
)

// config is the command line.
type config struct {
	duration   time.Duration
	rate       int
	snapPath   string
	listen     string
	obsAddr    string
	walDir     string
	walSync    string
	recover    bool
	checkpoint bool
}

func main() {
	var cfg config
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "how long to collect")
	flag.IntVar(&cfg.rate, "rate", 50000, "reports per second to generate")
	flag.StringVar(&cfg.snapPath, "snapshot", "", "write a store snapshot here on exit")
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "UDP listen address")
	flag.StringVar(&cfg.obsAddr, "obs", "", "serve /metrics, /debug/vars and /debug/pprof on this HTTP address (empty = off)")
	flag.StringVar(&cfg.walDir, "wal", "", "write-ahead-log directory (empty = no WAL)")
	flag.StringVar(&cfg.walSync, "wal-sync", "none", "WAL sync policy: none, interval[=d], batch")
	flag.BoolVar(&cfg.recover, "recover", false, "replay an existing WAL into the stores before collecting (needs -wal)")
	flag.BoolVar(&cfg.checkpoint, "checkpoint", false, "write a WAL checkpoint on exit, reclaiming covered segments (needs -wal)")
	flag.Parse()
	if cfg.walDir == "" && (cfg.recover || cfg.checkpoint) {
		log.Fatal("dtacollect: -recover/-checkpoint need -wal")
	}
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// options is the store geometry: small enough to start instantly, large
// enough for minutes of traffic.
func options() dta.Options {
	values := make([]uint32, 1024)
	for i := range values {
		values[i] = uint32(i + 1)
	}
	return dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 20, DataSize: 20},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 18},
		Postcarding:  &dta.PostcardingOptions{Chunks: 1 << 18, Hops: 5, Values: values},
		Append:       &dta.AppendOptions{Lists: 16, EntriesPerList: 1 << 16, EntrySize: netseer.EntrySize, Batch: 16},
	}
}

func run(cfg config, out io.Writer) error {
	sys, err := dta.New(options())
	if err != nil {
		return err
	}
	if cfg.obsAddr != "" {
		ln, err := net.Listen("tcp", cfg.obsAddr)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		fmt.Fprintf(out, "obs endpoint on http://%s/metrics\n", ln.Addr())
		srv := &http.Server{Handler: sys.ObsMux()}
		go srv.Serve(ln)
		defer srv.Close()
	}
	// Durability: recover any prior log into the fresh stores, THEN
	// attach the writer (recovery must not re-log replayed records).
	if cfg.walDir != "" {
		if cfg.recover {
			lsn, err := sys.Recover(cfg.walDir)
			if err != nil {
				return fmt.Errorf("recover: %w", err)
			}
			fmt.Fprintf(out, "recovered %d reports from %s (up to LSN %d)\n", sys.Stats().Reports, cfg.walDir, lsn)
		}
		pol, err := dta.ParseWALPolicy(cfg.walSync)
		if err != nil {
			return err
		}
		if err := sys.WithWAL(cfg.walDir, pol); err != nil {
			return err
		}
		defer sys.CloseWAL()
	}
	eng, err := sys.Engine(dta.EngineConfig{})
	if err != nil {
		return err
	}
	defer eng.Close()

	pc, err := net.ListenPacket("udp", cfg.listen)
	if err != nil {
		return err
	}
	defer pc.Close()
	conn := pc.(*net.UDPConn)
	fmt.Fprintf(out, "translator listening on %s\n", conn.LocalAddr())

	done := make(chan struct{})
	recvErr := make(chan error, 1)
	go func() { recvErr <- receive(conn, sys, eng.Reporter(0), done) }()
	sender, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		close(done)
		<-recvErr
		return err
	}
	defer sender.Close()
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		generate(sender, cfg.rate, done)
	}()

	// Progress loop.
	deadline := time.After(cfg.duration)
	status := time.NewTicker(time.Second)
	defer status.Stop()
	for {
		select {
		case <-status.C:
			st := sys.Translator().Stats() // atomic cells: safe beside the worker
			fmt.Fprintf(out, "reports=%d writes=%d atomics=%d postcard-emits=%d append-flushes=%d\n",
				st.Reports, st.RDMAWrites, st.RDMAAtomics, st.PostcardEmits, st.AppendFlushes)
		case <-deadline:
			close(done)
			<-genDone
			if err := <-recvErr; err != nil {
				return err
			}
			// Close drains the queue, flushes the translator and waits for
			// the commits the worker's batch ends requested.
			if err := eng.Close(); err != nil {
				return err
			}
			st := sys.Stats()
			fmt.Fprintf(out, "final: reports=%d rdma-writes=%d mem-instr/report=%.3f\n",
				st.Reports, st.RDMAWrites, st.MemInstrPerReport)
			if err := finish(cfg, sys, out); err != nil {
				return err
			}
			return sys.CloseWAL()
		}
	}
}

// receive is the socket edge: a datagram's payload is one DTA report.
// After the one blocking read it takes what the socket already holds,
// without waiting, and flushes the reporter when the socket runs dry, so
// a burst reaches the engine as one chunk: the chunk's store misses
// overlap, the log publishes once, and the worker's batch end requests
// the group commit. The clock advances once per burst.
func receive(conn *net.UDPConn, sys *dta.System, rep *dta.Reporter, done <-chan struct{}) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	buf := make([]byte, 2048)
	var n int
	next := readReady(rc, buf)
	start := time.Now()
	for {
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if n, _, err = conn.ReadFrom(buf); err != nil {
			select {
			case <-done:
				return rep.Flush()
			default:
				continue
			}
		}
		sys.Advance(uint64(time.Since(start)) - sys.Now())
		for n > 0 {
			// A datagram that does not decode is dropped, as a ToR
			// translator drops a malformed report.
			_ = rep.SubmitDatagram(buf[:n])
			n = next()
		}
		if err := rep.Flush(); err != nil {
			return err
		}
	}
}

// generate is the reporter side: INT path tracing plus loss events, at
// rate reports per second over the real socket, until done.
func generate(sender net.Conn, rate int, done <-chan struct{}) {
	g, _ := trace.NewGenerator(trace.DefaultConfig())
	paths, _ := inttel.NewPathModel(1024, 3, 5)
	sampler, _ := inttel.NewSampler(1, 1)
	postcards := &inttel.PostcardSource{Paths: paths, Sampler: sampler}
	losses := &netseer.LossEvents{ListID: 1}
	out := make([]byte, wire.MaxReportLen)
	var reports []wire.Report
	tick := time.NewTicker(time.Second / time.Duration(rate))
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			p := g.Next()
			reports = postcards.Reports(&p, reports[:0])
			reports = losses.Process(&p, reports)
			for i := range reports {
				n, err := wire.SerializeReport(out, &reports[i])
				if err != nil {
					continue
				}
				sender.Write(out[:n])
			}
		}
	}
}

// finish makes the quiesced run durable and writes what the flags ask
// for: the log's final state, a checkpoint and a snapshot image.
func finish(cfg config, sys *dta.System, out io.Writer) error {
	if sys.WALAttached() {
		if err := sys.SyncWAL(); err != nil {
			return err
		}
		ws, _ := sys.WALStats()
		fmt.Fprintf(out, "wal: %d records durable (LSN %d), %d syncs, %d segment rotations, %.1f MiB\n",
			ws.DurableLSN, ws.LastLSN, ws.Syncs, ws.Rotations, float64(ws.Bytes)/(1<<20))
		if cfg.checkpoint {
			lsn, err := sys.Checkpoint()
			if err != nil {
				return err
			}
			if lsn > 0 {
				fmt.Fprintf(out, "checkpoint: LSN %d written\n", lsn)
			}
		}
	}
	if cfg.snapPath != "" {
		if err := snapshot.View(sys.Host()).Save(cfg.snapPath); err != nil { // quiesced: no copy
			return err
		}
		fmt.Fprintf(out, "snapshot written to %s\n", cfg.snapPath)
		if fi, err := os.Stat(cfg.snapPath); err == nil {
			fmt.Fprintf(out, "snapshot size: %.1f MiB\n", float64(fi.Size())/(1<<20))
		}
	}
	return nil
}
