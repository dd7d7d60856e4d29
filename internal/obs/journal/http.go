package journal

import (
	"net/http"
	"time"

	"dta/internal/obs/ring"
)

// Record is the rendered (JSON) form of an Event, shared by the
// /debug/events endpoint and the on-disk recovery dump so one decoder
// (and one pair of eyes) reads both.
type Record struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Sev       string    `json:"sev"`
	Component string    `json:"component"`
	Collector int       `json:"collector"` // -1 = standalone / cluster-wide
	Cause     uint64    `json:"cause"`     // 0 = standalone event
	Type      string    `json:"type"`
	Detail    string    `json:"detail"`
	Args      [3]uint64 `json:"args"`
}

// Record renders the event.
func (ev *Event) Record() Record {
	return Record{
		Seq:       ev.Seq,
		Time:      time.Unix(0, ev.WallNs).UTC(),
		Sev:       ev.Sev.String(),
		Component: ev.Comp.String(),
		Collector: int(ev.Collector),
		Cause:     ev.Cause,
		Type:      ev.Type.String(),
		Detail:    ev.Detail(),
		Args:      [3]uint64{ev.Arg1, ev.Arg2, ev.Arg3},
	}
}

// Handler serves the journal at /debug/events: every retained event as
// a Record under "events", with ring.Handler's ?since= cursor protocol.
// Nil-safe: a nil journal serves an empty, well-formed payload.
func Handler(j *Journal) http.Handler {
	return ring.Handler(j.events(), "events", (*Event).Record)
}
