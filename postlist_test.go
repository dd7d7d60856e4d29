package dta

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dta/internal/ha"
	"dta/internal/rdma"
	"dta/internal/translator"
	"dta/internal/wire"
)

// The wire reference TestPostListMatchesPerVerb compares against: every
// work-queue entry the translator emits is encoded (rdma.Encode) into
// the RoCEv2 packet a wire would carry and executed at once, packet by
// packet, through the edge (Device.Process: decode, ICRC check, execute);
// a packet-parsing tagger (the old ha.Tracker.MarkPacket) tags its blocks
// first, and every ack goes straight back, decoded, to the PSN tracker.

// perVerb rewires s to the reference entry. epoch, if non-nil, is the HA
// tag clock: the reference tagger reads it per packet, and the device's
// own tagging is parked at epoch 0, which raises nothing.
func perVerb(s *System, epoch func() uint64) {
	host, dev := s.host, s.host.Device()
	regions := host.Listener().Regions
	if epoch != nil {
		dev.Epoch = func() uint64 { return 0 }
	}
	pktBuf, ackBuf := make([]byte, 0, 512), make([]byte, 0, 64)
	s.tr.Doorbell = nil
	s.tr.Emit = func(wqe []byte) {
		pkt, err := rdma.Encode(pktBuf, wqe)
		if err != nil {
			panic(fmt.Sprintf("reference: translator posted a malformed WQE: %v", err))
		}
		pktBuf = pkt[:0]
		if epoch != nil {
			refMarkPacket(dev, regions, pkt, epoch())
		}
		ack, ev, err := dev.Process(pkt, ackBuf)
		if err != nil {
			panic(fmt.Sprintf("reference: collector rejected RDMA packet: %v", err))
		}
		if ev != nil {
			select {
			case host.Events <- *ev:
			default:
				host.DroppedEvents++
			}
		}
		if ack != nil {
			var a rdma.Packet
			if err := rdma.DecodePacket(ack, &a); err != nil {
				panic(fmt.Sprintf("reference: bad ack: %v", err))
			}
			s.tr.Requester().HandleAck(rdma.Completion{Set: true, Syndrome: a.AETH.Syndrome, PSN: a.BTH.PSN})
		}
	}
}

// refMarkPacket is the old MarkPacket: a WRITE or FETCH&ADD tags every
// block it covers in the first region its VA falls in, read straight
// from the packet's fixed offsets.
func refMarkPacket(dev *rdma.Device, regions []rdma.RegionInfo, pkt []byte, epoch uint64) {
	if len(pkt) < rdma.BTHLen+rdma.RETHLen {
		return
	}
	var length uint64
	switch rdma.Opcode(pkt[0]) {
	case rdma.OpWriteOnly, rdma.OpWriteOnlyImm:
		length = uint64(binary.BigEndian.Uint32(pkt[rdma.BTHLen+12 : rdma.BTHLen+16]))
	case rdma.OpFetchAdd:
		length = 8
	default:
		return
	}
	va := binary.BigEndian.Uint64(pkt[rdma.BTHLen : rdma.BTHLen+8])
	for _, r := range regions {
		if length == 0 || va < r.VA || va >= r.VA+r.Length {
			continue
		}
		m, _ := dev.Region(r.RKey)
		first, last := (va-r.VA)/rdma.TagBlockBytes, (va+length-1-r.VA)/rdma.TagBlockBytes
		for b := first; b <= last && b < uint64(len(m.Tags)); b++ {
			for tag := &m.Tags[b]; ; {
				if cur := tag.Load(); cur >= epoch || tag.CompareAndSwap(cur, epoch) {
					break
				}
			}
		}
		return
	}
}

// devState is what the device and the requester leave behind.
type devState struct {
	stats         rdma.DeviceStats
	npsn, acked   uint32
	resyncs       uint64
	droppedEvents uint64
	translator    translator.Stats
}

func stateOf(s *System) devState {
	dev, req := s.host.Device(), s.tr.Requester()
	return devState{dev.Stats, req.NPSN, req.Acked, req.Resyncs, s.host.DroppedEvents, s.tr.Stats()}
}

// drainEvents appends every immediate event queued on s's host to evs.
func drainEvents(s *System, evs []rdma.ImmediateEvent) []rdma.ImmediateEvent {
	for {
		select {
		case ev := <-s.host.Events:
			evs = append(evs, ev)
		default:
			return evs
		}
	}
}

// sameCollector compares collector got against its reference twin: store
// bytes, device and requester state, the immediate-event sequence and,
// on HA members, every region's dirty tags.
func sameCollector(t *testing.T, what string, got, ref *System, gotEv, refEv []rdma.ImmediateEvent, gotTk, refTk *ha.Tracker) {
	t.Helper()
	sameImages(t, what+" stores", storeImages(got), storeImages(ref))
	if g, r := stateOf(got), stateOf(ref); g != r {
		t.Errorf("%s device/requester state:\n post-list %+v\n per verb  %+v", what, g, r)
	}
	if !slices.Equal(gotEv, refEv) {
		t.Errorf("%s: %d immediate events, reference %d (or order differs)", what, len(gotEv), len(refEv))
	}
	if gotTk == nil {
		return
	}
	for _, region := range []string{"keywrite", "keyincrement", "postcarding", "append"} {
		if !slices.Equal(gotTk.Tags(region), refTk.Tags(region)) {
			t.Errorf("%s: %s dirty tags differ from the reference", what, region)
		}
	}
}

// TestPostListMatchesPerVerb is the verbs-match-wire gate: a collector
// that runs each stage-C window as one post-list of work-queue entries —
// one doorbell, one completion value, tags raised while executing — must
// leave exactly what the same verbs left when each was encoded as a
// RoCEv2 packet and run through Device.Process on a twin: stores,
// DeviceStats, PSN state, immediate events and dirty tags. A
// standalone System takes a seeded four-primitive stream (immediates on,
// Key-Increment unaggregated, a few failing records) through the chunk
// entry, the per-record entry and epoch flushes (postcard drains, Append
// and Key-Increment flushes); an R = 3 HACluster takes the async engine
// and the synchronous reporter across a SetDown, then a Rebalance.
func TestPostListMatchesPerVerb(t *testing.T) {
	t.Run("system", func(t *testing.T) {
		st := newBatchStream(5, 6000)
		for i := range st.recs {
			if i%7 != 0 {
				continue
			}
			var scratch wire.Report
			rep := *st.recs[i].View(&scratch)
			rep.Data = slices.Clone(rep.Data)
			rep.Header.Flags |= wire.FlagImmediate
			st.recs[i].Stage(&rep)
		}
		opts := Options{
			KeyWrite:     &KeyWriteOptions{Slots: 1 << 10, DataSize: 4},
			KeyIncrement: &KeyIncrementOptions{Slots: 1 << 8},
			Postcarding:  &PostcardingOptions{Chunks: 1 << 8, Hops: 3, Values: []uint32{1, 2, 3, 4, 5, 6, 7}, CacheRows: 16},
			Append:       &AppendOptions{Lists: 4, EntriesPerList: 1 << 8, EntrySize: 4, Batch: 4},
		}
		var sys [2]*System
		var evs [2][]rdma.ImmediateEvent
		var failed [2]int
		for side := range sys {
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if side == 1 {
				perVerb(s, nil)
			}
			sys[side] = s
			rng := rand.New(rand.NewSource(99))
			for a := 0; a < len(st.recs); {
				// Up to three stage-C windows (32 records each) per chunk.
				b := min(a+1+rng.Intn(96), len(st.recs))
				for j := a + 1; j < b; j++ {
					if st.now[j] != st.now[a] {
						b = j
					}
				}
				if rng.Intn(3) == 0 {
					for i := a; i < b; i++ {
						if s.deliver(&st.recs[i], st.now[i]) != nil {
							failed[side]++
						}
					}
				} else {
					n, _ := systemSink{s}.ProcessStagedBatch(st.recs[a:b], wire.ChunkPlan{}, nil, st.now[a])
					failed[side] += n
				}
				if rng.Intn(8) == 0 {
					if err := s.flushAt(st.now[a]); err != nil {
						t.Fatal(err)
					}
				}
				evs[side] = drainEvents(s, evs[side])
				a = b
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			evs[side] = drainEvents(s, evs[side])
		}
		if failed[0] == 0 || failed[0] != failed[1] {
			t.Errorf("failed records: post-list %d, per verb %d (want equal, non-zero)", failed[0], failed[1])
		}
		if len(evs[0]) == 0 || sys[0].host.Device().Stats.FetchAdds == 0 {
			t.Fatal("stream raised no immediate or no FETCH&ADD")
		}
		sameCollector(t, "system", sys[0], sys[1], evs[0], evs[1], nil, nil)
	})

	t.Run("ha", func(t *testing.T) {
		const n, r = 4, 3
		var clusters [2]*HACluster
		var evs [2][n][]rdma.ImmediateEvent
		for side := range clusters {
			c, err := NewHACluster(n, r, haFanoutOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			clusters[side] = c
			if side == 1 {
				for i := 0; i < n; i++ {
					perVerb(c.System(i), c.health.Epoch)
				}
			}
			eng, err := c.Engine(EngineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			async := eng.Reporter(7)
			sync := c.Reporter(7)
			// drive runs one segment through the async engine or, with
			// immediates, through the synchronous reporter — never both at
			// once: the two would share each member's translator.
			drive := func(from, to uint64, imm bool) {
				t.Helper()
				var rep interface {
					KeyWrite(Key, []byte, int) error
					Increment(Key, uint64, int) error
					Postcard(Key, int, int) error
					Append(uint32, []byte) error
				} = async
				if imm {
					rep = sync
				}
				for i := from; i < to; i++ {
					var err error
					switch i % 4 {
					case 0:
						if imm {
							err = sync.KeyWriteImmediate(KeyFromUint64(i%700), keyData(i), 1+int(i%3))
						} else {
							err = rep.KeyWrite(KeyFromUint64(i%700), keyData(i), 1+int(i%3))
						}
					case 1:
						err = rep.Increment(KeyFromUint64(i%90), 1+i%4, 1+int(i%2))
					case 2:
						err = rep.Postcard(KeyFromUint64(1<<32|i/20), int(i/4%5), 5)
					case 3:
						err = rep.Append(uint32(i%4), keyData(i))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := async.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := eng.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			drive(0, 3000, false)
			if err := c.SetDown(2); err != nil {
				t.Fatal(err)
			}
			drive(3000, 4500, true)
			if err := c.SetUp(2); err != nil {
				t.Fatal(err)
			}
			drive(4500, 6000, false)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := c.Rebalance(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				evs[side][i] = drainEvents(c.System(i), nil)
			}
		}
		got, ref := clusters[0], clusters[1]
		for i := 0; i < n; i++ {
			sameCollector(t, fmt.Sprintf("collector %d", i), got.System(i), ref.System(i), evs[0][i], evs[1][i], got.trackers[i], ref.trackers[i])
		}
		if g, r := got.HAStats(), ref.HAStats(); g != r {
			t.Errorf("HAStats:\n post-list %+v\n per verb  %+v", g, r)
		}
		if got.HAStats().ResyncSlots == 0 {
			t.Error("the Rebalance replayed nothing: the tags went unexercised")
		}
	})
}

// TestDoorbellTagsAfterCut pins the epoch ordering dirty tags rest on: a
// doorbell reads the epoch on the worker after its chunk was dequeued,
// so a chunk staged after a reporter cut — or, in the second case, a
// SetDown — writes every surviving replica's blocks with a tag at or
// past the bumped epoch, even while the chunk before the cut is still
// queued; and Rebalance replays those blocks into the victim.
func TestDoorbellTagsAfterCut(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cut, heal func(c *HACluster, i int) error
	}{
		{"partition", (*HACluster).PartitionReporter, (*HACluster).HealReporter},
		{"setdown", (*HACluster).SetDown, (*HACluster).SetUp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const victim, perChunk = 1, 400
			c, err := NewHACluster(4, 3, haOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.EnableChaos(3); err != nil {
				t.Fatal(err)
			}
			eng, err := c.Engine(EngineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			rep := eng.Reporter(1)
			write := func(from, to uint64) {
				t.Helper()
				for k := from; k < to; k++ {
					if err := rep.KeyWrite(KeyFromUint64(k), keyData(k), 2); err != nil {
						t.Fatal(err)
					}
					if err := rep.Increment(KeyFromUint64(k), 1, 2); err != nil {
						t.Fatal(err)
					}
				}
				if err := rep.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			write(0, perChunk) // queued; may still be waiting when the cut lands
			if err := tc.cut(c, victim); err != nil {
				t.Fatal(err)
			}
			bumped := c.health.Epoch()
			write(perChunk, 2*perChunk)
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}

			var missed []uint64
			for k := uint64(perChunk); k < 2*perChunk; k++ {
				key := KeyFromUint64(k)
				owners := c.Owners(key)
				if !slices.Contains(owners, victim) {
					continue
				}
				missed = append(missed, k)
				for _, o := range owners {
					if o == victim {
						continue
					}
					host := c.System(o).Host()
					kw, ki := host.KeyWriteStore().Indexer(), host.KeyIncrementStore().Indexer()
					kwTags, kiTags := c.trackers[o].Tags("keywrite"), c.trackers[o].Tags("keyincrement")
					for j := 0; j < 2; j++ {
						if tag := kwTags[kw.Offset(kw.Slot(j, key))/rdma.TagBlockBytes]; tag < bumped {
							t.Fatalf("key %d on collector %d: Key-Write block tagged %d, before the cut's epoch %d", k, o, tag, bumped)
						}
						if tag := kiTags[ki.Offset(ki.Slot(j, key))/rdma.TagBlockBytes]; tag < bumped {
							t.Fatalf("key %d on collector %d: Key-Increment block tagged %d, before the cut's epoch %d", k, o, tag, bumped)
						}
					}
				}
			}
			if len(missed) == 0 {
				t.Fatal("the victim owns none of the keys written after the cut")
			}

			if err := tc.heal(c, victim); err != nil {
				t.Fatal(err)
			}
			if err := c.RebalanceUntilHealed(0); err != nil {
				t.Fatal(err)
			}
			if c.HAStats().ResyncSlotsSkipped == 0 {
				t.Error("resync skipped nothing: it was not incremental")
			}
			vs := c.System(victim)
			for _, k := range missed {
				key := KeyFromUint64(k)
				data, ok, err := vs.LookupValue(key, 2)
				if err != nil || !ok || string(data) != string(keyData(k)) {
					t.Fatalf("key %d: victim answers %x %v %v after Rebalance", k, data, ok, err)
				}
				if n, err := vs.LookupCount(key, 2); err != nil || n == 0 {
					t.Fatalf("key %d: victim counts %d %v after Rebalance", k, n, err)
				}
			}
		})
	}
}
