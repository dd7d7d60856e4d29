// Command dtarecover inspects and repairs DTA write-ahead-log
// directories (written by dtacollect -wal or the library's WithWAL).
//
//	dtarecover -wal /tmp/dta.wal                  # list segments + checkpoint
//	dtarecover -wal /tmp/dta.wal -verify          # full CRC/LSN verification, images per section
//	dtarecover -wal /tmp/dta.wal -dump -from 100  # print records from LSN 100
//	dtarecover -wal /tmp/dta.wal -dump -limit 20
//	dtarecover -wal /tmp/dta.wal -repair          # truncate a torn tail
//	dtarecover -wal /tmp/dta.wal -events          # print the recovery timeline
//
// -events reads the flight-recorder dump (events.jsonl) a recovery left
// in the directory: what the recovering process found and did — torn-
// tail truncation, replay extent — as a causal timeline.
//
// Exit status is non-zero when -verify finds damage before the log's
// tail (a torn tail alone is normal crash debris, reported but OK), or
// checkpoint images of which not one verifies (one damaged generation of
// the two is reported but OK: recovery falls back to the other).
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dta/internal/obs/journal"
	"dta/internal/vfs"
	"dta/internal/wal"
	"dta/internal/wire"
)

func main() {
	var (
		dir    = flag.String("wal", "", "WAL directory to inspect")
		verify = flag.Bool("verify", false, "verify every record's CRC and LSN chain")
		dump   = flag.Bool("dump", false, "print records")
		from   = flag.Uint64("from", 1, "first LSN to dump")
		limit  = flag.Int("limit", 50, "max records to dump (0 = all)")
		repair = flag.Bool("repair", false, "truncate a torn tail in place")
		events = flag.Bool("events", false, "print the flight-recorder dump (events.jsonl) a recovery left behind")
	)
	flag.Parse()
	if *dir == "" {
		log.Fatal("dtarecover: -wal is required")
	}
	if *events {
		if err := printEvents(*dir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*dir, *verify, *dump, *from, *limit, *repair); err != nil {
		log.Fatal(err)
	}
}

// printEvents renders the recovery timeline dumped into the directory.
func printEvents(dir string) error {
	path := filepath.Join(dir, journal.DumpFileName)
	recs, err := journal.ReadDump(path)
	if err != nil {
		return fmt.Errorf("dtarecover: %w (run a recovery with telemetry on to produce the dump)", err)
	}
	var lastCause uint64
	for i := range recs {
		r := &recs[i]
		link := "  "
		if r.Cause != 0 && r.Cause == lastCause {
			link = "└▶"
		}
		lastCause = r.Cause
		who := "-"
		if r.Collector >= 0 {
			who = fmt.Sprintf("c%d", r.Collector)
		}
		cause := ""
		if r.Cause != 0 {
			cause = fmt.Sprintf(" [chain %d]", r.Cause)
		}
		fmt.Printf("%s %-5s %-10s %-3s %s %s%s\n",
			r.Time.Format("15:04:05.000"), r.Sev, r.Component, who, link, r.Detail, cause)
	}
	fmt.Printf("%d events from %s\n", len(recs), path)
	return nil
}

func run(dir string, verify, dump bool, from uint64, limit int, repair bool) error {
	if repair {
		removed, err := wal.RepairTail(vfs.OS{}, dir)
		if err != nil {
			return err
		}
		fmt.Printf("repair: %d torn bytes removed\n", removed)
	}

	segs, err := wal.Segments(dir)
	if err != nil {
		return err
	}
	if m, err := wal.LoadMeta(dir); err != nil {
		return err
	} else if m != nil {
		fmt.Printf("meta: keywrite=%v keyincrement=%v postcarding=%v append=%v\n",
			m.Translator.KeyWrite != nil, m.Translator.KeyIncrement != nil,
			m.Translator.Postcarding != nil, m.Translator.Append != nil)
	}
	imagesDamaged := printImages(dir, verify)
	var total int
	for _, s := range segs {
		status := "ok"
		if s.Err != nil {
			status = fmt.Sprintf("DAMAGED after LSN %d: %v", s.Last, s.Err)
		} else if s.TornBytes > 0 {
			status = fmt.Sprintf("torn tail (%dB)", s.TornBytes)
		}
		fmt.Printf("segment %s: LSN [%d,%d] records=%d bytes=%d %s\n",
			filepath.Base(s.Path), s.First, s.Last, s.Records, s.Bytes+s.TornBytes, status)
		total += s.Records
	}
	fmt.Printf("total: %d segments, %d intact records\n", len(segs), total)

	if verify {
		// Replay validates every frame CRC, the LSN chain and
		// cross-segment contiguity without applying anything.
		last, err := wal.Replay(dir, 1, func(uint64, uint64, *wire.StagedReport) error { return nil })
		switch {
		case errors.Is(err, wal.ErrCorrupt):
			fmt.Printf("verify: CORRUPT — intact prefix ends at LSN %d: %v\n", last, err)
			os.Exit(1)
		case err != nil:
			return err
		default:
			fmt.Printf("verify: clean — %d records replayable up to LSN %d\n", total, last)
		}
		if imagesDamaged {
			fmt.Println("verify: CORRUPT — no checkpoint image verifies; recovery needs the log from LSN 1")
			os.Exit(1)
		}
	}

	if dump {
		n := 0
		_, err := wal.Replay(dir, from, func(lsn, nowNs uint64, rec *wire.StagedReport) error {
			if limit > 0 && n >= limit {
				return errDumpDone
			}
			n++
			printRecord(lsn, nowNs, rec)
			return nil
		})
		if err != nil && !errors.Is(err, errDumpDone) {
			return err
		}
	}
	return nil
}

// printImages walks both checkpoint generations block by block (one
// block of memory, whatever their size) and prints a verdict and the log
// position each covers — with sections, one line per section too. It
// reports whether there are images and not one of them verifies: a single
// damaged generation is what the other one is kept for.
func printImages(dir string, sections bool) (allDamaged bool) {
	present, good := 0, 0
	for _, g := range wal.VerifyCheckpoints(dir) {
		if os.IsNotExist(g.Err) {
			continue
		}
		present++
		switch {
		case g.Err == nil:
			good++
			fmt.Printf("%s: ok, covers the log up to LSN %d\n", g.Name, g.Check.WALLSN)
		case g.Check != nil:
			fmt.Printf("%s: DAMAGED (header says LSN %d): %v\n", g.Name, g.Check.WALLSN, g.Err)
		default:
			fmt.Printf("%s: DAMAGED: %v\n", g.Name, g.Err)
		}
		if sections && g.Check != nil {
			for _, sec := range g.Check.Sections {
				verdict := "ok"
				if sec.Err != nil {
					verdict = sec.Err.Error()
				}
				fmt.Printf("  %-18s %12d B  %s\n", sec.Name, sec.Bytes, verdict)
			}
		}
	}
	return present > 0 && good == 0
}

var errDumpDone = errors.New("dump limit reached")

func printRecord(lsn, nowNs uint64, rec *wire.StagedReport) {
	switch rec.Primitive() {
	case wire.PrimKeyWrite:
		key, red := rec.KeyWriteArgs()
		fmt.Printf("%8d @%dns key-write key=%s n=%d data=%s\n",
			lsn, nowNs, hex.EncodeToString(key[:8]), red, hex.EncodeToString(rec.Payload()))
	case wire.PrimAppend:
		fmt.Printf("%8d @%dns append list=%d data=%s\n",
			lsn, nowNs, rec.AppendArgs(), hex.EncodeToString(rec.Payload()))
	case wire.PrimKeyIncrement:
		key, red, delta := rec.KeyIncrementArgs()
		fmt.Printf("%8d @%dns key-increment key=%s n=%d delta=%d\n",
			lsn, nowNs, hex.EncodeToString(key[:8]), red, delta)
	case wire.PrimPostcarding:
		key, hop, pathLen, value := rec.PostcardArgs()
		fmt.Printf("%8d @%dns postcard key=%s hop=%d/%d value=%d\n",
			lsn, nowNs, hex.EncodeToString(key[:8]), hop, pathLen, value)
	default:
		fmt.Printf("%8d @%dns unknown primitive %v\n", lsn, nowNs, rec.Primitive())
	}
}
