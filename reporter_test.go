package dta

import (
	"fmt"
	"testing"

	"dta/internal/reporter"
	"dta/internal/wire"
)

// haFanoutOptions is four primitives on every member, Key-Increment
// aggregation as asked.
func haFanoutOptions(aggRows int) Options {
	o := fullOptions()
	o.KeyIncrement = &KeyIncrementOptions{Slots: 1 << 12, AggregationRows: aggRows}
	return o
}

// reporterTarget is one deployment a Reporter attaches to: its
// collectors, its synchronous and engine attachments, and, for the
// replicated HACluster, the cluster the parity drive takes an owner of
// down and whose HAStats it compares.
type reporterTarget struct {
	systems []*System
	sync    func(switchID uint32) *Reporter
	engine  func(EngineConfig) (*Engine, error)
	hac     *HACluster
}

// reporterTargets builds each deployment kind the parity and range
// tables run over: a System, a cluster of 3 at R = 1 (named Cluster)
// and an HACluster of 4 with R = 3.
var reporterTargets = []struct {
	name  string
	build func(t *testing.T, opts Options) reporterTarget
}{
	{"System", func(t *testing.T, opts Options) reporterTarget {
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return reporterTarget{systems: []*System{s}, sync: s.Reporter, engine: s.Engine}
	}},
	{"Cluster", func(t *testing.T, opts Options) reporterTarget {
		c, err := NewHACluster(3, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		return reporterTarget{systems: c.systems, sync: c.Reporter, engine: c.Engine}
	}},
	{"HACluster", func(t *testing.T, opts Options) reporterTarget {
		c, err := NewHACluster(4, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		return reporterTarget{systems: c.systems, sync: c.Reporter, engine: c.Engine, hac: c}
	}},
}

// reportInput is what the parity drive calls: a Reporter's typed
// methods and its frame edge.
type reportInput interface {
	KeyWrite(key Key, data []byte, n int) error
	KeyWriteImmediate(key Key, data []byte, n int) error
	Append(list uint32, data []byte) error
	Increment(key Key, delta uint64, n int) error
	Postcard(key Key, hop, pathLen int) error
	PostcardValue(key Key, hop, pathLen int, value uint32) error
	SubmitFrame(frame []byte) error
}

// datagrams turns each typed call into the wire.SerializeReport bytes of
// the report it describes and hands them to SubmitDatagram, as a socket
// edge would.
type datagrams struct {
	*Reporter
	buf [wire.MaxReportLen]byte
}

func (d *datagrams) submit(rep wire.Report) error {
	rep.Header.Version = wire.Version
	n, err := wire.SerializeReport(d.buf[:], &rep)
	if err != nil {
		return err
	}
	return d.SubmitDatagram(d.buf[:n])
}

func (d *datagrams) KeyWrite(key Key, data []byte, n int) error {
	return d.submit(wire.Report{Header: wire.Header{Primitive: wire.PrimKeyWrite},
		KeyWrite: wire.KeyWrite{Redundancy: uint8(n), DataLen: uint16(len(data)), Key: key}, Data: data})
}

func (d *datagrams) KeyWriteImmediate(key Key, data []byte, n int) error {
	return d.submit(wire.Report{Header: wire.Header{Primitive: wire.PrimKeyWrite, Flags: wire.FlagImmediate},
		KeyWrite: wire.KeyWrite{Redundancy: uint8(n), DataLen: uint16(len(data)), Key: key}, Data: data})
}

func (d *datagrams) Append(list uint32, data []byte) error {
	return d.submit(wire.Report{Header: wire.Header{Primitive: wire.PrimAppend},
		Append: wire.Append{ListID: list, DataLen: uint16(len(data))}, Data: data})
}

func (d *datagrams) Increment(key Key, delta uint64, n int) error {
	return d.submit(wire.Report{Header: wire.Header{Primitive: wire.PrimKeyIncrement},
		KeyIncrement: wire.KeyIncrement{Redundancy: uint8(n), Key: key, Delta: delta}})
}

func (d *datagrams) Postcard(key Key, hop, pathLen int) error {
	return d.PostcardValue(key, hop, pathLen, d.switchID)
}

func (d *datagrams) PostcardValue(key Key, hop, pathLen int, value uint32) error {
	return d.submit(wire.Report{Header: wire.Header{Primitive: wire.PrimPostcarding},
		Postcard: wire.Postcard{Key: key, Hop: uint8(hop), PathLen: uint8(pathLen), Value: value}})
}

// TestReporterParity: a Reporter validates, stages and routes a report
// the same way whatever it is attached to and whichever edge it enters
// by. On each deployment — a System, an HACluster of 3 at R = 1, and
// one of 4 with R = 3 and an owner down for the middle third of the
// run, so fan-outs of every width occur — the same calls through a
// synchronous handle (all six typed methods and SubmitFrame,
// Key-Increment aggregation off and on), through an engine handle, and,
// with every typed call sent as wire.SerializeReport bytes through
// SubmitDatagram, through both handles again, must leave every
// collector's stores byte for byte alike, with equal translator Stats
// and immediate-event counts, and equal HAStats. The synchronous HA fan-out delivers one
// staged record to each live owner; the engine's copies record and plan
// into each owner's chunk.
func TestReporterParity(t *testing.T) {
	const reports = 7000
	for _, agg := range []int{0, 16} {
		t.Run(fmt.Sprintf("agg=%d", agg), func(t *testing.T) {
			for _, tg := range reporterTargets {
				t.Run(tg.name, func(t *testing.T) {
					drive := func(d reporterTarget, rep reportInput) {
						enc := reporter.New(reporter.Config{SwitchID: 7})
						frame := make([]byte, 256)
						for i := uint64(0); i < reports; i++ {
							if d.hac != nil {
								switch i {
								case reports / 3:
									if err := d.hac.SetDown(2); err != nil {
										t.Fatal(err)
									}
								case 2 * reports / 3:
									if err := d.hac.SetUp(2); err != nil {
										t.Fatal(err)
									}
								}
							}
							var err error
							switch i % 7 {
							case 0:
								err = rep.KeyWrite(KeyFromUint64(i%700), keyData(i), 1+int(i%3))
							case 1:
								err = rep.Increment(KeyFromUint64(i%90), 1+i%4, 1+int(i%2))
							case 2:
								err = rep.Postcard(KeyFromUint64(1<<32|i/35), int(i/7%5), 5)
							case 3:
								err = rep.Append(uint32(i%4), keyData(i))
							case 4:
								err = rep.KeyWriteImmediate(KeyFromUint64(i%500), keyData(i), 1+int(i%2))
							case 5:
								err = rep.PostcardValue(KeyFromUint64(2<<32|i/35), int(i/7%5), 5, uint32(i%64))
							case 6:
								var n int
								k := KeyFromUint64(3<<32 | i%300)
								switch i / 7 % 4 {
								case 0:
									n, err = enc.KeyWrite(frame, k, keyData(i), 2, i%3 == 0)
								case 1:
									n, err = enc.KeyIncrement(frame, k, i%5+1, 2)
								case 2:
									n, err = enc.Postcard(frame, k, uint8(i/28%5), 5)
								case 3:
									n, err = enc.Append(frame, uint32(i%4), keyData(i), false)
								}
								if err == nil {
									err = rep.SubmitFrame(frame[:n])
								}
							}
							if err != nil {
								t.Fatalf("report %d: %v", i, err)
							}
						}
					}
					// run drives a fresh deployment through a synchronous or an
					// engine handle, the typed calls as given or as datagrams,
					// and settles it.
					run := func(viaEngine, viaDatagrams bool) reporterTarget {
						d := tg.build(t, haFanoutOptions(agg))
						rep, eng := d.sync(7), (*Engine)(nil)
						if viaEngine {
							var err error
							if eng, err = d.engine(EngineConfig{}); err != nil {
								t.Fatal(err)
							}
							rep = eng.Reporter(7)
						}
						var in reportInput = rep
						if viaDatagrams {
							in = &datagrams{Reporter: rep}
						}
						drive(d, in)
						if eng != nil {
							if err := rep.Flush(); err != nil {
								t.Fatal(err)
							}
							if err := eng.Close(); err != nil {
								t.Fatal(err)
							}
						}
						for _, s := range d.systems {
							if err := s.Flush(); err != nil {
								t.Fatal(err)
							}
						}
						return d
					}

					direct := run(false, false)
					events := func(s *System) int { return len(s.host.Events) + int(s.host.DroppedEvents) }
					for _, v := range []struct {
						name                    string
						viaEngine, viaDatagrams bool
					}{
						{"engine", true, false},
						{"sync datagrams", false, true},
						{"engine datagrams", true, true},
					} {
						got := run(v.viaEngine, v.viaDatagrams)
						for i, s := range direct.systems {
							a := got.systems[i]
							sameImages(t, fmt.Sprintf("%s: collector %d", v.name, i), storeImages(s), storeImages(a))
							if x, y := s.tr.Stats(), a.tr.Stats(); x != y {
								t.Errorf("%s: collector %d translator Stats:\n sync  %+v\n got   %+v", v.name, i, x, y)
							}
							if x, y := events(s), events(a); x != y || x == 0 {
								t.Errorf("%s: collector %d immediate events: sync %d, got %d (want equal, > 0)", v.name, i, x, y)
							}
						}
						if direct.hac != nil {
							if x, y := direct.hac.HAStats(), got.hac.HAStats(); x != y {
								t.Errorf("%s: HAStats:\n sync  %+v\n got   %+v", v.name, x, y)
							}
						}
					}
				})
			}
		})
	}
}

// TestReporterRejectsOutOfRange: redundancy, hop and path length are one
// byte each on the wire, so every attachment refuses an argument outside
// its range before narrowing it — 257 must not become redundancy 1, nor
// path length 256 become 0 (an unannotated path) — and stores nothing.
// A valid report through the same handle afterwards still lands.
func TestReporterRejectsOutOfRange(t *testing.T) {
	k, d := KeyFromUint64(9), []byte{1, 2, 3, 4}
	bad := []struct {
		name string
		call func(r *Reporter) error
	}{
		{"KeyWrite n=0", func(r *Reporter) error { return r.KeyWrite(k, d, 0) }},
		{"KeyWrite n=256", func(r *Reporter) error { return r.KeyWrite(k, d, 256) }},
		{"KeyWrite n=257", func(r *Reporter) error { return r.KeyWrite(k, d, 257) }},
		{"KeyWrite n=-255", func(r *Reporter) error { return r.KeyWrite(k, d, -255) }},
		{"KeyWriteImmediate n=257", func(r *Reporter) error { return r.KeyWriteImmediate(k, d, 257) }},
		{"Increment n=257", func(r *Reporter) error { return r.Increment(k, 1, 257) }},
		{"Increment n=-1", func(r *Reporter) error { return r.Increment(k, 1, -1) }},
		{"Postcard hop=257", func(r *Reporter) error { return r.Postcard(k, 257, 5) }},
		{"Postcard hop=-1", func(r *Reporter) error { return r.Postcard(k, -1, 5) }},
		{"Postcard pathLen=256", func(r *Reporter) error { return r.Postcard(k, 9, 256) }},
		{"PostcardValue pathLen=-1", func(r *Reporter) error { return r.PostcardValue(k, 1, -1, 7) }},
		{"PostcardValue hop=256", func(r *Reporter) error { return r.PostcardValue(k, 256, 0, 7) }},
	}
	reports := func(systems []*System) (n uint64) {
		for _, s := range systems {
			n += s.tr.Stats().Reports
		}
		return n
	}
	for _, tg := range reporterTargets {
		for _, viaEngine := range []bool{false, true} {
			name := tg.name
			if viaEngine {
				name += "/Engine"
			}
			t.Run(name, func(t *testing.T) {
				dep := tg.build(t, fullOptions())
				rep, settle := dep.sync(1), func() error { return nil }
				if viaEngine {
					eng, err := dep.engine(EngineConfig{})
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					rep = eng.Reporter(1)
					settle = func() error {
						if err := rep.Flush(); err != nil {
							return err
						}
						return eng.Drain()
					}
				}
				for _, c := range bad {
					if err := c.call(rep); err == nil {
						t.Errorf("%s accepted", c.name)
					}
				}
				if err := settle(); err != nil {
					t.Fatal(err)
				}
				if n := reports(dep.systems); n != 0 {
					t.Fatalf("out-of-range calls stored %d reports", n)
				}
				if err := rep.KeyWrite(k, d, 2); err != nil {
					t.Fatal(err)
				}
				if err := settle(); err != nil {
					t.Fatal(err)
				}
				if n := reports(dep.systems); n == 0 {
					t.Fatal("a valid KeyWrite after the rejected calls was not stored")
				}
			})
		}
	}
}
