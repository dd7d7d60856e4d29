package trace

import (
	"net/http"

	"dta/internal/obs/ring"
)

// JSONStage is one stamped stage in a trace's JSON rendering: the stage
// name and its offset from the trace's first stamp. Unstamped (zero)
// stages are omitted.
type JSONStage struct {
	Stage string `json:"stage"`
	AtNs  int64  `json:"at_ns"`
}

// JSON is one completed trace as /debug/traces serves it.
type JSON struct {
	Seq     uint64      `json:"seq"`
	ID      uint64      `json:"id"`
	Flags   []string    `json:"flags,omitempty"`
	StartNs int64       `json:"start_ns"`
	TotalNs int64       `json:"total_ns"`
	Stages  []JSONStage `json:"stages"`
}

// JSON renders the record.
func (r *Record) JSON() JSON {
	start := r.Start()
	j := JSON{
		Seq:     r.Seq,
		ID:      r.ID,
		Flags:   FlagNames(r.Flags),
		StartNs: start,
		TotalNs: r.Total(),
		Stages:  make([]JSONStage, 0, NumStages),
	}
	for i, ts := range r.TS {
		if ts != 0 {
			j.Stages = append(j.Stages, JSONStage{Stage: Stage(i).String(), AtNs: ts - start})
		}
	}
	return j
}

// Record rebuilds the identity and stamps of the record a rendering
// came from (its Flags stay zero: j.Flags names them).
func (j *JSON) Record() Record {
	r := Record{Seq: j.Seq, ID: j.ID}
	for _, st := range j.Stages {
		for i, name := range stageNames {
			if name == st.Stage {
				r.TS[i] = j.StartNs + st.AtNs
			}
		}
	}
	return r
}

// Handler returns the /debug/traces handler: completed traces as JSON
// under "traces", oldest first, with ring.Handler's ?since= cursor
// protocol. Nil-safe: a nil tracer serves an empty, well-formed payload.
func Handler(t *Tracer) http.Handler {
	return ring.Handler(t.traces(), "traces", (*Record).JSON)
}
