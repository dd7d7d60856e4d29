package translator

import (
	"dta/internal/crc"
	"dta/internal/wire"
)

// Query-enhancing extension (§7 of the paper): when a query is known
// ahead of time, the translator can evaluate part of it in the data
// plane. The paper's example is
//
//	SELECT flowID, path WHERE SUM(latency) > T
//
// The translator waits for the per-hop latency postcards of a flow, sums
// them, and reports the flow only when the end-to-end latency exceeds
// the threshold — turning a stream of postcards into a trickle of
// threshold events appended to a list.
//
// ThresholdQuery is implemented as a pre-processor in front of Process:
// postcarding reports that belong to the query's flow space are consumed
// here, and an Append report is synthesised when a flow trips the
// threshold.

// ThresholdQuery aggregates per-hop values at the translator and emits
// an event when a flow's sum exceeds a threshold.
type ThresholdQuery struct {
	// Threshold is T: the minimum SUM(value) that triggers a report.
	Threshold uint64
	// ListID is the Append list receiving threshold events.
	ListID uint32
	// Hops is the expected path bound B.
	Hops int

	rows []tqRow
	eng  *crc.Engine
	mask uint64
	// Stats counts query activity.
	Stats ThresholdQueryStats
}

// ThresholdQueryStats counts aggregation outcomes.
type ThresholdQueryStats struct {
	Postcards uint64
	Completed uint64
	Triggered uint64
	Evicted   uint64
}

type tqRow struct {
	key      wire.Key
	occupied bool
	present  uint16
	count    uint8
	sum      uint64
}

// NewThresholdQuery builds the query with a cache of rows (a power of
// two).
func NewThresholdQuery(rows int, hops int, threshold uint64, listID uint32) *ThresholdQuery {
	if rows <= 0 || rows&(rows-1) != 0 {
		rows = 1 << 15
	}
	if hops < 1 || hops > 16 {
		hops = 5
	}
	return &ThresholdQuery{
		Threshold: threshold,
		ListID:    listID,
		Hops:      hops,
		rows:      make([]tqRow, rows),
		eng:       crc.New(crc.CDROMEDC),
		mask:      uint64(rows - 1),
	}
}

// Event is a triggered threshold report: the flow and its summed value.
type Event struct {
	Key wire.Key
	Sum uint64
}

// Offer consumes a postcard if it belongs to this query, returning any
// triggered event and whether the postcard was consumed.
func (q *ThresholdQuery) Offer(p *wire.Postcard) (ev *Event, consumed bool) {
	q.Stats.Postcards++
	r := &q.rows[uint64(q.eng.Sum128((*[wire.KeySize]byte)(&p.Key)))&q.mask]
	if r.occupied && r.key != p.Key {
		// Collision: drop the incumbent's partial sum. A production
		// deployment would size the cache for the flow arrival rate, as
		// Postcarding's cache does.
		q.Stats.Evicted++
		*r = tqRow{}
	}
	if !r.occupied {
		r.occupied = true
		r.key = p.Key
	}
	hop := uint(p.Hop)
	if hop >= 16 {
		hop = 15
	}
	if r.present&(1<<hop) == 0 {
		r.present |= 1 << hop
		r.count++
		r.sum += uint64(p.Value)
	}
	target := uint8(q.Hops)
	if p.PathLen != 0 && p.PathLen < target {
		target = p.PathLen
	}
	if r.count < target {
		return nil, true
	}
	q.Stats.Completed++
	sum := r.sum
	key := r.key
	*r = tqRow{}
	if sum <= q.Threshold {
		return nil, true
	}
	q.Stats.Triggered++
	return &Event{Key: key, Sum: sum}, true
}

// EventReport renders a triggered event as the Append report the
// translator forwards to the collector: 16 B flow key + 8 B sum.
func (q *ThresholdQuery) EventReport(ev *Event) wire.Report {
	data := make([]byte, wire.KeySize+8)
	copy(data, ev.Key[:])
	for i := 0; i < 8; i++ {
		data[wire.KeySize+i] = byte(ev.Sum >> uint(56-8*i))
	}
	return wire.Report{
		Header: wire.Header{Version: wire.Version, Primitive: wire.PrimAppend},
		Append: wire.Append{ListID: q.ListID},
		Data:   data,
	}
}

// InstallThresholdQuery attaches the query to the translator: matching
// postcards are aggregated here instead of the Postcarding path, and
// triggered events enter the Append path.
func (t *Translator) InstallThresholdQuery(q *ThresholdQuery) {
	t.thresholdQuery = q
}
