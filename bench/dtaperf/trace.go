package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// The traced pass. Spans are recorded from the benchmark's own files,
// around its calls into the system and — on the worker side — inside the
// closures it wraps around the public hook fields Translator.Emit and
// Translator.WAL. Spans stay in memory until the run ends.
//
// Each goroutine that records owns one track (no locks): the producer
// track, and one worker track per collector. Worker spans take the
// producer's current phase span as their parent, published through
// traceCtx.

// sampleEvery thins the per-report spans (submit calls on the producer,
// emit and WAL-append calls on the workers): one call in sampleEvery is
// timed and stands for all of them. At 1/512 a traced pass keeps some
// tens of thousands of spans (a few MB of JSON) and costs the workers
// one counter increment per call.
const sampleEvery = 512

type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Cycle  int32  `json:"cycle"`
	Track  string `json:"track"`
	Start  int64  `json:"start_ns"` // since trace start
	End    int64  `json:"end_ns"`
	Weight int32  `json:"weight"` // calls this span stands for
}

// traceCtx is what worker tracks read from the producer.
type traceCtx struct {
	on     atomic.Bool
	cycle  atomic.Int32
	parent atomic.Int32
	nextID atomic.Int32
	t0     time.Time
}

type track struct {
	ctx   *traceCtx
	name  string
	spans []span
	tick  uint32 // sampling counter for per-call spans
}

func newTrack(ctx *traceCtx, name string) *track {
	return &track{ctx: ctx, name: name, spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its index in the track.
func (k *track) begin(name string, parent int32, weight int32) int {
	k.spans = append(k.spans, span{
		Name: name, ID: k.ctx.nextID.Add(1), Parent: parent, Cycle: k.ctx.cycle.Load(),
		Track: k.name, Start: int64(time.Since(k.ctx.t0)), Weight: weight,
	})
	return len(k.spans) - 1
}

func (k *track) end(i int) { k.spans[i].End = int64(time.Since(k.ctx.t0)) }

func (k *track) id(i int) int32 { return k.spans[i].ID }

// sampled reports whether this per-call site should be timed now.
func (k *track) sampled() bool {
	k.tick++
	return k.tick%sampleEvery == 0 && k.ctx.on.Load()
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Track   string  `json:"track"`
	Spans   int     `json:"spans"`
	Calls   int64   `json:"calls"` // spans × weight
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"` // total minus what same-track children cover
	MeanNs  float64 `json:"mean_ns"` // per call
	P50Ns   float64 `json:"p50_ns"`  // median span duration
}

// selfTimes folds spans into per-name totals. A span's self time is its
// duration minus the (weight-scaled) durations of its children on the
// same track; children on another track run in parallel with the parent
// and are reported under their own name only.
func selfTimes(spans []span) []selfRow {
	byID := make(map[int32]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	childCover := make(map[int32]float64)
	for i := range spans {
		s := &spans[i]
		if p, ok := byID[s.Parent]; ok && p.Track == s.Track {
			childCover[s.Parent] += float64(s.End-s.Start) * float64(s.Weight)
		}
	}
	type key struct{ name, track string }
	rows := map[key]*selfRow{}
	durs := map[key][]float64{}
	for i := range spans {
		s := &spans[i]
		k := key{s.Name, trackKind(s.Track)}
		r := rows[k]
		if r == nil {
			r = &selfRow{Name: s.Name, Track: k.track}
			rows[k] = r
		}
		dur := float64(s.End-s.Start) * float64(s.Weight)
		self := dur - childCover[s.ID]
		if self < 0 {
			self = 0
		}
		durs[k] = append(durs[k], float64(s.End-s.Start))
		r.Spans++
		r.Calls += int64(s.Weight)
		r.TotalMs += dur / 1e6
		r.SelfMs += self / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for k, r := range rows {
		r.MeanNs = r.TotalMs * 1e6 / float64(r.Calls)
		r.P50Ns = median(durs[k])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// trackKind folds worker-0..worker-3 into one table row.
func trackKind(t string) string {
	if len(t) > 6 && t[:6] == "worker" {
		return "worker"
	}
	return t
}

// spanP50Ns is the median duration of the named spans: the typical call,
// without the few that sat through a full queue or a preemption (those
// show in the mean, and in engine.queue_stalls).
func spanP50Ns(rows []selfRow, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.P50Ns
		}
	}
	return 0
}

type traceFile struct {
	Workload      string    `json:"workload"`
	Seed          uint64    `json:"seed"`
	SampleEvery   int       `json:"sample_every"`
	OverheadShare float64   `json:"trace_overhead_share"`
	SelfTime      []selfRow `json:"self_time"`
	Spans         []span    `json:"spans"`
}

func writeTraceFile(path string, tf *traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-22s %-9s %9s %11s %11s %11s %13s %13s\n", "span", "track", "spans", "calls", "total_ms", "self_ms", "mean_ns", "p50_ns")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-9s %9d %11d %11.2f %11.2f %13.1f %13.1f\n", r.Name, r.Track, r.Spans, r.Calls, r.TotalMs, r.SelfMs, r.MeanNs, r.P50Ns)
	}
}
