// Command dtacollect runs a live DTA collector + translator over UDP on
// the loopback interface, with built-in INT reporters generating traffic.
//
// Deployment mapping: in a datacenter the translator is the collector's
// ToR switch and reports arrive as raw Ethernet; here the kernel provides
// L2–L4, so reporters send the DTA portion (base header + sub-header +
// payload) as UDP datagrams to the translator's socket, which parses them
// with the same wire code and performs the same DTA→RDMA translation
// against the in-process collector memory.
//
//	dtacollect -duration 5s -rate 50000 -snapshot /tmp/dta.snap
//
// The resulting snapshot can be queried with dtaquery.
//
// With -wal every admitted report is also logged to a segmented
// write-ahead log, so a crash loses at most what the -wal-sync policy
// permits; -recover replays an existing log (checkpoint + tail) into
// the stores before collecting, and -checkpoint writes a fresh
// checkpoint (reclaiming covered segments) on exit:
//
//	dtacollect -duration 5s -wal /tmp/dta.wal -wal-sync interval=100ms
//	dtacollect -duration 5s -wal /tmp/dta.wal -recover -checkpoint
//
// The log directory can be inspected with dtarecover and queried
// directly with dtaquery -wal.
//
// With -obs the collector serves its self-telemetry over HTTP:
// Prometheus-text metrics at /metrics, expvar at /debug/vars, and the
// full pprof suite at /debug/pprof/ — poll it live with dtastat:
//
//	dtacollect -duration 60s -obs 127.0.0.1:9090 &
//	dtastat -addr 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"dta/internal/collector"
	"dta/internal/core/appendlist"
	"dta/internal/core/keyincrement"
	"dta/internal/core/keywrite"
	"dta/internal/core/postcarding"
	"dta/internal/obs"
	"dta/internal/obs/journal"
	obstrace "dta/internal/obs/trace"
	"dta/internal/snapshot"
	"dta/internal/telemetry/inttel"
	"dta/internal/telemetry/netseer"
	"dta/internal/trace"
	"dta/internal/translator"
	"dta/internal/wal"
	"dta/internal/wire"
)

// walConfig bundles the durability flags.
type walConfig struct {
	dir        string
	sync       string
	recover    bool
	checkpoint bool
}

func main() {
	var (
		duration = flag.Duration("duration", 5*time.Second, "how long to collect")
		rate     = flag.Int("rate", 50000, "reports per second to generate")
		snapPath = flag.String("snapshot", "", "write a store snapshot here on exit")
		addr     = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		obsAddr  = flag.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof on this HTTP address (empty = off)")
		wcfg     walConfig
	)
	flag.StringVar(&wcfg.dir, "wal", "", "write-ahead-log directory (empty = no WAL)")
	flag.StringVar(&wcfg.sync, "wal-sync", "none", "WAL sync policy: none, interval[=d], batch")
	flag.BoolVar(&wcfg.recover, "recover", false, "replay an existing WAL into the stores before collecting (needs -wal)")
	flag.BoolVar(&wcfg.checkpoint, "checkpoint", false, "write a WAL checkpoint on exit, reclaiming covered segments (needs -wal)")
	flag.Parse()
	if wcfg.dir == "" && (wcfg.recover || wcfg.checkpoint) {
		log.Fatal("dtacollect: -recover/-checkpoint need -wal")
	}
	if err := run(*duration, *rate, *snapPath, *addr, *obsAddr, wcfg); err != nil {
		log.Fatal(err)
	}
}

// burstMax is how many datagrams the receiver hands the translator as
// one chunk (the engine's default ChunkFrames).
const burstMax = 32

func run(duration time.Duration, rate int, snapPath, addr, obsAddr string, wcfg walConfig) error {
	// Self-telemetry: one registry for every layer; served over HTTP
	// when -obs is set. A nil scope (no -obs) leaves all counters live
	// but unexposed and disables the latency spans.
	reg := obs.NewRegistry()
	// Flight recorder + health verdict ride along: /debug/events serves
	// the causal event timeline, /healthz the rule-driven SLO verdict.
	jr := journal.New(0)
	he := obs.NewHealthEvaluator(reg)
	// Data-plane trace pipeline: sampled per-report stage timelines with
	// tail retention, served at /debug/traces.
	trc := obstrace.New(obstrace.Config{})
	var sc *obs.Scope
	if obsAddr != "" {
		sc = reg.Scope()
		ln, err := net.Listen("tcp", obsAddr)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		defer ln.Close()
		fmt.Printf("obs endpoint on http://%s/metrics\n", ln.Addr())
		mux := obs.Mux(reg)
		journal.Mount(mux, jr)
		obstrace.Mount(mux, trc)
		obs.MountHealth(mux, he)
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
	}
	// Store geometry: small enough to start instantly, large enough for
	// minutes of traffic.
	kw := keywrite.Config{Slots: 1 << 20, DataSize: 20}
	ki := keyincrement.Config{Slots: 1 << 18}
	values := make([]uint32, 1024)
	for i := range values {
		values[i] = uint32(i + 1)
	}
	pc := postcarding.Config{Chunks: 1 << 18, Hops: 5, Values: values}
	ap := appendlist.Config{Lists: 16, EntriesPerList: 1 << 16, EntrySize: netseer.EntrySize}

	host, err := collector.New(collector.Config{
		KeyWrite: &kw, KeyIncrement: &ki, Postcarding: &pc, Append: &ap,
	})
	if err != nil {
		return err
	}
	tr, err := translator.NewScoped(translator.Config{
		KeyWrite: &kw, KeyIncrement: &ki, Postcarding: &pc, Append: &ap,
		AppendBatch: 16,
	}, host.Listener(), sc)
	if err != nil {
		return err
	}
	tr.Journal = journal.Emitter{J: jr, Comp: journal.CompTranslator, Collector: -1}
	tr.PreTouch = host.Device().PreTouch
	tr.Emit, tr.Doorbell = host.Post, host.Doorbell

	// Durability: recover any prior log into the fresh stores, THEN
	// attach the writer (recovery must not re-log replayed records).
	var walW *wal.Writer
	if wcfg.dir != "" {
		if wcfg.recover {
			walJr := journal.Emitter{J: jr, Comp: journal.CompWAL, Collector: -1}
			cause := walJr.NewCause()
			walJr.Emit(journal.EvRecoveryStart, journal.SevInfo, cause, 0, 0, 0)
			// The image lands in the fresh stores themselves.
			rec, err := wal.Recover(wcfg.dir, snapshot.View(host), tr.AppendBatcher(),
				func(lsn, nowNs uint64, rec *wire.StagedReport) error {
					return tr.ProcessStaged(rec, nowNs)
				})
			if rec.TornBytes > 0 {
				walJr.Emit(journal.EvTornTail, journal.SevWarn, cause, uint64(rec.TornBytes), 0, 0)
				fmt.Printf("recover: truncated %d torn tail bytes\n", rec.TornBytes)
			}
			if err != nil {
				return fmt.Errorf("recover: %w", err)
			}
			if rec.PassedOver != nil {
				walJr.Emit(journal.EvImageFallback, journal.SevWarn, cause, rec.ImageLSN, 0, 0)
				log.Printf("recover: fell back to the image at LSN %d: %v", rec.ImageLSN, rec.PassedOver)
			}
			walJr.Emit(journal.EvReplayExtent, journal.SevInfo, cause, rec.Last, uint64(rec.Skipped), 0)
			if err := jr.DumpFile(filepath.Join(wcfg.dir, journal.DumpFileName)); err != nil {
				log.Printf("recover: events dump: %v", err)
			}
			fmt.Printf("recovered %d reports from %s (up to LSN %d, %d skipped)\n",
				tr.Stats().Reports, wcfg.dir, rec.Last, rec.Skipped)
		}
		pol, err := wal.ParsePolicy(wcfg.sync)
		if err != nil {
			return err
		}
		walW, err = wal.CreateScoped(wcfg.dir, pol, sc)
		if err != nil {
			return err
		}
		walW.SetJournal(journal.Emitter{J: jr, Comp: journal.CompWAL, Collector: -1})
		if err := wal.SaveMeta(wcfg.dir, &wal.Meta{Translator: tr.Config()}); err != nil {
			return err
		}
		tr.WAL = func(rec *wire.StagedReport, nowNs uint64) error {
			_, err := walW.Stage(rec, nowNs, tr.TraceHandle())
			return err
		}
		tr.WALPublish = walW.Publish
		defer walW.Close()
	}

	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("translator listening on %s\n", conn.LocalAddr())

	// Receiver loop: UDP datagram payload = DTA report. After the one
	// blocking read it takes what the socket already holds, without
	// waiting, and hands the translator the burst as one chunk: the
	// chunk's store misses overlap and the log publishes once.
	rc, err := conn.(*net.UDPConn).SyscallConn()
	if err != nil {
		return err
	}
	done := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		buf := make([]byte, 2048)
		var rep wire.Report
		var smp obstrace.Sampler
		var recs [burstMax]wire.StagedReport
		var trcs [burstMax]obstrace.Handle
		var n int
		poll := func(fd uintptr) bool {
			n, _ = syscall.Read(int(fd), buf) // the socket is non-blocking: EAGAIN when empty
			return true
		}
		start := time.Now()
		for {
			conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			var err error
			n, _, err = conn.ReadFrom(buf)
			if err != nil {
				select {
				case <-done:
					return
				default:
					continue
				}
			}
			burst := 0
			for {
				if wire.DecodeReport(buf[:n], &rep) == nil {
					h := trc.Begin(&smp)
					h.Stamp(obstrace.StSubmit)
					recs[burst].Stage(&rep)
					trcs[burst] = h
					burst++
				}
				if burst == burstMax || rc.Read(poll) != nil || n <= 0 {
					break
				}
			}
			now := uint64(time.Since(start))
			if _, err := tr.ProcessStagedBatch(recs[:burst], wire.ChunkPlan{}, trcs[:burst], now); err != nil {
				log.Printf("translate: %v", err)
			}
			for _, h := range trcs[:burst] {
				h.Finish()
			}
			if walW != nil {
				// Each burst is an ingest batch on this path: request its
				// commit and go back to the socket. Bursts that arrive
				// while an fsync is in flight share the next one; shutdown
				// waits for the last.
				if err := walW.CommitBatch(); err != nil {
					log.Printf("wal: %v", err)
				}
			}
		}
	}()

	// Reporter: INT path tracing + loss events over the real socket.
	sender, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		return err
	}
	defer sender.Close()
	go func() {
		g, _ := trace.NewGenerator(trace.DefaultConfig())
		paths, _ := inttel.NewPathModel(1024, 3, 5)
		sampler, _ := inttel.NewSampler(1, 1)
		postcards := &inttel.PostcardSource{Paths: paths, Sampler: sampler}
		losses := &netseer.LossEvents{ListID: 1}
		out := make([]byte, wire.MaxReportLen)
		var reports []wire.Report
		interval := time.Second / time.Duration(rate)
		tick := time.NewTicker(interval)
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
	}()

	// Progress loop.
	deadline := time.After(duration)
	status := time.NewTicker(time.Second)
	defer status.Stop()
	for {
		select {
		case <-status.C:
			st := tr.Stats()
			fmt.Printf("reports=%d writes=%d atomics=%d postcard-emits=%d append-flushes=%d\n",
				st.Reports, st.RDMAWrites, st.RDMAAtomics, st.PostcardEmits, st.AppendFlushes)
		case <-deadline:
			close(done)
			// The receiver owns the translator (and WAL writer) until it
			// notices done; flushing concurrently would race it.
			<-recvDone
			if err := tr.Flush(0); err != nil {
				return err
			}
			st := tr.Stats()
			fmt.Printf("final: reports=%d rdma-writes=%d mem-instr/report=%.3f\n",
				st.Reports, st.RDMAWrites, func() float64 {
					host.Device().AttributeReports(st.Reports - host.Device().Mem.Reports)
					return host.Device().Mem.PerReport()
				}())
			if walW != nil {
				if err := walW.Sync(); err != nil {
					return err
				}
				ws := walW.WStats()
				fmt.Printf("wal: %d records durable (LSN %d), %d syncs, %d segment rotations, %.1f MiB\n",
					ws.DurableLSN, ws.LastLSN, ws.Syncs, ws.Rotations, float64(ws.Bytes)/(1<<20))
				if wcfg.checkpoint && walW.LastLSN() > 0 {
					// The receiver has stopped: stream the image out of
					// store memory, no copy.
					snap := snapshot.View(host)
					if b := tr.AppendBatcher(); b != nil {
						snap.AppendHeads = b.WrittenCounts(nil)
					}
					snap.WALLSN = walW.LastLSN()
					walJr := journal.Emitter{J: jr, Comp: journal.CompWAL, Collector: -1}
					removed, err := wal.Checkpoint(wcfg.dir, snap, walJr, 0)
					if err != nil {
						return err
					}
					fmt.Printf("checkpoint: LSN %d written, %d segments reclaimed\n", snap.WALLSN, removed)
				}
			}
			if snapPath != "" {
				if err := snapshot.View(host).Save(snapPath); err != nil { // quiesced: no copy
					return err
				}
				fmt.Printf("snapshot written to %s\n", snapPath)
				fi, _ := os.Stat(snapPath)
				if fi != nil {
					fmt.Printf("snapshot size: %.1f MiB\n", float64(fi.Size())/(1<<20))
				}
			}
			return nil
		}
	}
}
