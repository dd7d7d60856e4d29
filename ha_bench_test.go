package dta_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dta"
)

// haBenchOptions sizes stores like cmd/dtaload, so slot-overwrite noise
// does not pollute the replication measurements.
func haBenchOptions() dta.Options {
	return dta.Options{
		KeyWrite:     &dta.KeyWriteOptions{Slots: 1 << 20, DataSize: 4},
		KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 18},
	}
}

func benchKeyData(i uint64) []byte {
	var d [4]byte
	binary.BigEndian.PutUint32(d[:], uint32(i))
	return d[:]
}

// BenchmarkHA_SyncKeyWrite measures the synchronous fan-out cost of
// replication: every report crosses the full wire path R times.
func BenchmarkHA_SyncKeyWrite(b *testing.B) {
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			c, err := dta.NewHACluster(4, r, haBenchOptions())
			if err != nil {
				b.Fatal(err)
			}
			rep := c.Reporter(1)
			data := []byte{1, 2, 3, 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), data, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(r)/b.Elapsed().Seconds(), "replica-writes/s")
		})
	}
}

// BenchmarkHA_EngineIngest measures end-to-end async throughput under
// R=1/2/3: submissions fan out to R shard queues and the benchmark
// drains before stopping the clock, so the figure covers ingestion,
// not just enqueueing.
func BenchmarkHA_EngineIngest(b *testing.B) {
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			c, err := dta.NewHACluster(4, r, haBenchOptions())
			if err != nil {
				b.Fatal(err)
			}
			eng, err := c.Engine(dta.EngineConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rep := eng.Reporter(1)
			data := []byte{1, 2, 3, 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), data, 2); err != nil {
					b.Fatal(err)
				}
			}
			if err := rep.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := eng.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkHA_FailoverIngest kills a collector mid-run and reports,
// alongside throughput, the fraction of written keys still answerable
// afterwards (with the victim restored and rebalanced): the
// availability-under-failure trade R buys.
func BenchmarkHA_FailoverIngest(b *testing.B) {
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			c, err := dta.NewHACluster(4, r, haBenchOptions())
			if err != nil {
				b.Fatal(err)
			}
			eng, err := c.Engine(dta.EngineConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rep := eng.Reporter(1)
			victim := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i == b.N/2 {
					if err := c.SetDown(victim); err != nil {
						b.Fatal(err)
					}
				}
				k := uint64(i) % (1 << 16) // bounded key space: queries verifiable
				if err := rep.KeyWrite(dta.KeyFromUint64(k), benchKeyData(k), 2); err != nil {
					b.Fatal(err)
				}
			}
			if err := rep.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := eng.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := c.SetUp(victim); err != nil {
				b.Fatal(err)
			}
			if err := c.Rebalance(); err != nil {
				b.Fatal(err)
			}
			keys := uint64(b.N)
			if keys > 1<<16 {
				keys = 1 << 16
			}
			found := 0
			for k := uint64(0); k < keys; k++ {
				data, ok, err := c.LookupValue(dta.KeyFromUint64(k), 2)
				if err == nil && ok && bytes.Equal(data, benchKeyData(k)) {
					found++
				}
			}
			b.ReportMetric(100*float64(found)/float64(keys), "%recovered")
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// haLookupBits sets how many keys (1 << haLookupBits) the lookup
// benchmarks write and then read back in a scrambled order: their slots
// spread over every page of the stores below, so a lookup's lines come
// from memory, not cache.
const haLookupBits = 18

// benchLookup builds a 4-collector cluster at R = 1, 2 and 3 over opts
// (32 MiB a store — sized past the cache) and times lookups over it
// (timeLookups): the `go test -bench` twin of dtaperf's ha.lookup_ns.
func benchLookup(b *testing.B, opts dta.Options, fill func(rep *dta.Reporter, k uint64) error, lookup func(d *dta.HACluster, k uint64) error) {
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			c, err := dta.NewHACluster(4, r, opts)
			if err != nil {
				b.Fatal(err)
			}
			timeLookups(b, c, haLookupBits, fill, lookup)
		})
	}
}

// timeLookups fills d with 1 << bits keys through fill and times lookup
// over them.
func timeLookups(b *testing.B, d *dta.HACluster, bits uint, fill func(rep *dta.Reporter, k uint64) error, lookup func(d *dta.HACluster, k uint64) error) {
	rep := d.Reporter(1)
	for k := uint64(0); k < 1<<bits; k++ {
		if err := fill(rep, k); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A multiplicative scramble: successive lookups share neither
		// owners nor lines with their neighbours.
		k := uint64(i) * 0x9E3779B97F4A7C15 >> (64 - bits)
		if err := lookup(d, k); err != nil {
			b.Fatal(err)
		}
	}
}

func fillValue(rep *dta.Reporter, k uint64) error {
	return rep.KeyWrite(dta.KeyFromUint64(k), benchKeyData(k), 2)
}

func lookupValue(d *dta.HACluster, k uint64) error {
	data, ok, err := d.LookupValue(dta.KeyFromUint64(k), 2)
	if err == nil && ok && !bytes.Equal(data, benchKeyData(k)) {
		err = fmt.Errorf("key %d: wrong value %x", k, data)
	}
	return err
}

func fillCount(rep *dta.Reporter, k uint64) error {
	return rep.Increment(dta.KeyFromUint64(k), k+1, 2)
}

func lookupCount(d *dta.HACluster, k uint64) error {
	count, err := d.LookupCount(dta.KeyFromUint64(k), 2)
	if err == nil && count < k+1 {
		err = fmt.Errorf("key %d: count %d undercounts %d", k, count, k+1)
	}
	return err
}

func BenchmarkHA_LookupValue(b *testing.B) {
	benchLookup(b, dta.Options{KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 22, DataSize: 4}}, fillValue, lookupValue)
}

func BenchmarkHA_LookupCount(b *testing.B) {
	benchLookup(b, dta.Options{KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 22}}, fillCount, lookupCount)
}

func BenchmarkHA_LookupPath(b *testing.B) {
	values := make([]uint32, 64)
	for i := range values {
		values[i] = uint32(i + 1)
	}
	opts := dta.Options{Postcarding: &dta.PostcardingOptions{Chunks: 1 << 20, Hops: 5, Values: values, Redundancy: 2}}
	benchLookup(b, opts,
		func(rep *dta.Reporter, k uint64) error {
			for hop := 0; hop < 5; hop++ {
				if err := rep.PostcardValue(dta.KeyFromUint64(k), hop, 5, uint32(k+uint64(hop))%64+1); err != nil {
					return err
				}
			}
			return nil
		},
		func(d *dta.HACluster, k uint64) error {
			path, ok, err := d.LookupPath(dta.KeyFromUint64(k), 2)
			if err == nil && ok && (len(path) != 5 || path[0] != uint32(k)%64+1) {
				err = fmt.Errorf("flow %d: wrong path %v", k, path)
			}
			return err
		})
}

// BenchmarkHA_R1 prices the single-owner deployment — four collectors,
// HACluster at R = 1 — on the write and read paths of the benchmarks
// above with their geometry and key scramble. LookupValueResident reads
// 1 << 10 keys, whose lines stay in cache, so it prices the lookup's own
// work apart from its misses.
func BenchmarkHA_R1(b *testing.B) {
	r1 := func(b *testing.B, opts dta.Options) *dta.HACluster {
		d, err := dta.NewHACluster(4, 1, opts)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	data := []byte{1, 2, 3, 4}
	b.Run("SyncKeyWrite", func(b *testing.B) {
		rep := r1(b, haBenchOptions()).Reporter(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), data, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EngineIngest", func(b *testing.B) {
		eng, err := r1(b, haBenchOptions()).Engine(dta.EngineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rep := eng.Reporter(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rep.KeyWrite(dta.KeyFromUint64(uint64(i)), data, 2); err != nil {
				b.Fatal(err)
			}
		}
		if err := rep.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := eng.Drain(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	})
	kw := dta.Options{KeyWrite: &dta.KeyWriteOptions{Slots: 1 << 22, DataSize: 4}}
	b.Run("LookupValue", func(b *testing.B) {
		timeLookups(b, r1(b, kw), haLookupBits, fillValue, lookupValue)
	})
	b.Run("LookupValueResident", func(b *testing.B) {
		timeLookups(b, r1(b, kw), 10, fillValue, lookupValue)
	})
	b.Run("LookupCount", func(b *testing.B) {
		timeLookups(b, r1(b, dta.Options{KeyIncrement: &dta.KeyIncrementOptions{Slots: 1 << 22}}), haLookupBits, fillCount, lookupCount)
	})
}
