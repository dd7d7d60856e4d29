package dta

import (
	"fmt"

	"dta/internal/crc"
	"dta/internal/wire"
)

// Cluster shards telemetry across multiple collectors (§7, "Supporting
// Multiple Collectors"): reports are partitioned by key hash, so every
// collector owns a disjoint slice of the key space and queries go
// straight to the owner. Append lists are partitioned by list ID.
type Cluster struct {
	systems []*System
	eng     *crc.Engine
	// telemetry is shared by every member, each registering under a
	// collector="i" label.
	telemetry
}

// NewCluster builds n identical collectors from the same options. All
// members share one telemetry registry (Metrics), their series told
// apart by a collector="i" label.
func NewCluster(n int, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("dta: cluster size %d < 1", n)
	}
	c := &Cluster{eng: crc.New(crc.K32K), telemetry: newTelemetry(opts)}
	for i := 0; i < n; i++ {
		o := opts
		o.Seed = opts.Seed + int64(i)
		sys, err := newSystem(o, &c.telemetry, int16(i))
		if err != nil {
			return nil, err
		}
		c.systems = append(c.systems, sys)
	}
	return c, nil
}

// Size returns the number of collectors.
func (c *Cluster) Size() int { return len(c.systems) }

// owner returns the collector responsible for a key. Ownership is
// CRC32(key) mod cluster size — the same function a reporter's
// forwarding table applies (§7), so reporter-side forwarding (a
// Reporter of the cluster or of its engine) and query routing MUST keep
// hashing identically or queries will miss the data.
func (c *Cluster) owner(key Key) int {
	if len(c.systems) == 0 {
		// NewCluster enforces n >= 1; only a zero-value Cluster gets
		// here, and a mod-by-zero panic would point at the wrong culprit.
		panic("dta: owner on empty Cluster (construct with NewCluster)")
	}
	return int(c.eng.Sum128((*[16]byte)(&key)) % uint32(len(c.systems)))
}

// ownerOfList returns the collector responsible for an Append list.
func (c *Cluster) ownerOfList(list uint32) int {
	return int(list) % len(c.systems)
}

// System returns collector i (for direct Append polling etc.).
func (c *Cluster) System(i int) *System { return c.systems[i] }

// Reporter attaches a reporter switch that routes each report to the
// owning collector, as the reporter's forwarding table would (the DTA
// header plus collector IP select the partition, §7).
func (c *Cluster) Reporter(switchID uint32) *Reporter {
	return &Reporter{switchID: switchID, systems: c.systems, cluster: c}
}

// ownerOf is the collector rep goes to: its key's owner, or for an
// Append its list's.
func (c *Cluster) ownerOf(rep *wire.Report) int {
	if rep.Header.Primitive == wire.PrimAppend {
		return c.ownerOfList(rep.Append.ListID)
	}
	return c.owner(*routeKey(rep))
}

// LookupValue queries the owning collector's Key-Write store.
func (c *Cluster) LookupValue(key Key, n int) ([]byte, bool, error) {
	return c.systems[c.owner(key)].LookupValue(key, n)
}

// LookupPath queries the owning collector's Postcarding store.
func (c *Cluster) LookupPath(key Key, n int) ([]uint32, bool, error) {
	return c.systems[c.owner(key)].LookupPath(key, n)
}

// LookupCount queries the owning collector's Key-Increment store.
func (c *Cluster) LookupCount(key Key, n int) (uint64, error) {
	return c.systems[c.owner(key)].LookupCount(key, n)
}

// Flush flushes every collector's translator state.
func (c *Cluster) Flush() error {
	for _, sys := range c.systems {
		if err := sys.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Stats sums counters across collectors. MemInstrPerReport is the
// report-weighted average of the per-collector ratios, so the Fig. 8
// metric means the same thing for a cluster as for one collector.
func (c *Cluster) Stats() Stats {
	return aggregateStats(c.systems)
}

// aggregateStats combines per-collector stats for Cluster and HACluster:
// counters sum; MemInstrPerReport, a ratio, is averaged weighted by each
// collector's report count (summing ratios would overstate the metric by
// up to a factor of the cluster size).
func aggregateStats(systems []*System) Stats {
	var total Stats
	var memInstr float64 // report-weighted sum of per-collector ratios
	for _, sys := range systems {
		st := sys.Stats()
		total.Reports += st.Reports
		total.RDMAWrites += st.RDMAWrites
		total.RDMAAtomics += st.RDMAAtomics
		total.RateDropped += st.RateDropped
		total.Resyncs += st.Resyncs
		total.PostcardEmits += st.PostcardEmits
		total.AppendFlushes += st.AppendFlushes
		total.LinkDropped += st.LinkDropped
		memInstr += st.MemInstrPerReport * float64(st.Reports)
	}
	if total.Reports > 0 {
		total.MemInstrPerReport = memInstr / float64(total.Reports)
	}
	return total
}
