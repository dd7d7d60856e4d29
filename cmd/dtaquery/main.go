// Command dtaquery runs queries against a collector snapshot written by
// dtacollect, or against the state recovered from a write-ahead-log
// directory (-wal replays the checkpoint and log tail, answering with
// everything the log retained — including reports newer than any
// snapshot).
//
//	dtaquery -snapshot /tmp/dta.snap -primitive keywrite -key 42 -n 2
//	dtaquery -snapshot /tmp/dta.snap -primitive postcarding -key 42
//	dtaquery -snapshot /tmp/dta.snap -primitive append -list 1 -count 10
//	dtaquery -wal /tmp/dta.wal -primitive keyincrement -key 42
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"

	"dta"
	"dta/internal/snapshot"
	"dta/internal/telemetry/netseer"
	"dta/internal/wire"
)

func main() {
	var (
		snapPath  = flag.String("snapshot", "", "snapshot file from dtacollect")
		walDir    = flag.String("wal", "", "WAL directory to recover and query (alternative to -snapshot)")
		primitive = flag.String("primitive", "keywrite", "keywrite | postcarding | append | keyincrement")
		key       = flag.Uint64("key", 0, "telemetry key (64-bit form)")
		n         = flag.Int("n", 2, "redundancy used at report time")
		list      = flag.Int("list", 0, "append list to poll")
		count     = flag.Int("count", 10, "append entries to read")
	)
	flag.Parse()
	// Both sources answer through one snapshot: a loaded image, or a
	// view over the recovered system's stores.
	var view *snapshot.Snapshot
	switch {
	case *snapPath != "" && *walDir != "":
		log.Fatal("dtaquery: -snapshot and -wal are mutually exclusive")
	case *snapPath != "":
		snap, err := snapshot.Load(*snapPath)
		if err != nil {
			log.Fatal(err)
		}
		view = snap
	case *walDir != "":
		// Recovery ends at an epoch boundary: cached aggregation state
		// (postcards, partial batches) has reached the stores.
		sys, err := dta.RecoverSystem(*walDir)
		if err != nil {
			log.Fatal(err)
		}
		view = snapshot.View(sys.Host())
	default:
		log.Fatal("dtaquery: -snapshot or -wal is required")
	}
	k := wire.KeyFromUint64(*key)
	switch *primitive {
	case "keywrite":
		st, err := view.KeyWriteStore()
		if err != nil {
			log.Fatal(err)
		}
		res, err := st.Query(k, *n, 1)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Found {
			fmt.Printf("key %d: empty return (matches=%d)\n", *key, res.Matches)
			return
		}
		fmt.Printf("key %d: value=%s (agreements %d/%d)\n",
			*key, hex.EncodeToString(res.Data), res.Agreements, res.Matches)
	case "postcarding":
		st, err := view.PostcardingStore()
		if err != nil {
			log.Fatal(err)
		}
		res, err := st.Query(k, *n)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Found {
			fmt.Printf("flow %d: no valid chunk\n", *key)
			return
		}
		fmt.Printf("flow %d: path %v (%d valid chunks)\n", *key, res.Values, res.ValidChunks)
	case "append":
		st, err := view.AppendStore()
		if err != nil {
			log.Fatal(err)
		}
		p, err := st.NewPoller(*list)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < *count; i++ {
			e := p.Poll()
			if len(e) == netseer.EntrySize {
				flow, seq, reason := netseer.Decode(e)
				fmt.Printf("list %d[%d]: flow=%s seq=%d reason=%d\n",
					*list, i, hex.EncodeToString(flow[:13]), seq, reason)
			} else {
				fmt.Printf("list %d[%d]: %s\n", *list, i, hex.EncodeToString(e))
			}
		}
	case "keyincrement":
		st, err := view.KeyIncrementStore()
		if err != nil {
			log.Fatal(err)
		}
		v, err := st.Query(k, *n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("key %d: count >= %d (count-min over N=%d)\n", *key, v, *n)
	default:
		log.Fatalf("dtaquery: unknown primitive %q", *primitive)
	}
}
