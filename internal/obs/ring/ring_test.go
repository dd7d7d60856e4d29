package ring

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

// rec is the test schema: three words, each derived from one value, so
// a record mixing two publishes is detectable.
type rec struct{ seq, v, a, b uint64 }

func decodeRec(seq uint64, w []uint64) rec { return rec{seq, w[0], w[1], w[2]} }

func (x rec) torn() bool { return x.a != x.v*3 || x.b != ^x.v }

func publish(r *Ring[rec], v uint64) uint64 {
	seq, w := r.Claim()
	w[0].Store(v)
	w[1].Store(v * 3)
	w[2].Store(^v)
	r.Commit(seq)
	return seq
}

// TestSinceProperty: publish P records into capacity C, then read from
// cursor c. The read returns min(P−c, C) records, in sequence order,
// each intact, with missed = max(0, P−c−C), and last = P.
func TestSinceProperty(t *testing.T) {
	for _, c := range []int{1, 2, 8, 16} {
		for p := 0; p <= 3*c+1; p++ {
			r := New(c, 3, decodeRec)
			for i := 1; i <= p; i++ {
				publish(r, uint64(i)*7)
			}
			for cur := 0; cur <= p; cur++ {
				got, last, missed := r.Since(uint64(cur), nil)
				want := min(p-cur, c)
				if len(got) != want || last != uint64(p) || missed != uint64(max(0, p-cur-c)) {
					t.Fatalf("C=%d P=%d cursor=%d: %d records, last %d, missed %d; want %d, %d, %d",
						c, p, cur, len(got), last, missed, want, p, max(0, p-cur-c))
				}
				for i, x := range got {
					if x.seq != uint64(p-want+1+i) || x.v != x.seq*7 || x.torn() {
						t.Fatalf("C=%d P=%d cursor=%d: record %d = %+v", c, p, cur, i, x)
					}
				}
			}
			if d := r.Dropped(); d != uint64(max(0, p-c)) {
				t.Fatalf("C=%d P=%d: Dropped = %d", c, p, d)
			}
		}
	}
}

// TestConcurrentPublishScrape runs 4 publishers and 2 scrapers over a
// small ring under -race: no torn record surfaces, no sequence is
// delivered twice to one cursor, and each scraper's delivered + missed
// covers every publish exactly once.
func TestConcurrentPublishScrape(t *testing.T) {
	const publishers, perPublisher = 4, 5000
	r := New(16, 3, decodeRec)
	var pubs, scrapers sync.WaitGroup
	done := make(chan struct{})
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var cursor, delivered, missedSum uint64
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true // one last read after every publish
				default:
				}
				got, last, missed := r.Since(cursor, nil)
				for _, x := range got {
					if x.torn() || x.seq <= cursor || x.seq > last {
						t.Errorf("cursor %d, last %d: bad record %+v", cursor, last, x)
						return
					}
					cursor = x.seq
				}
				delivered += uint64(len(got))
				missedSum += missed
				cursor = last
			}
			if delivered+missedSum != publishers*perPublisher {
				t.Errorf("delivered %d + missed %d != published %d", delivered, missedSum, publishers*perPublisher)
			}
		}()
	}
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < perPublisher; i++ {
				publish(r, uint64(p*perPublisher+i))
			}
		}()
	}
	pubs.Wait()
	close(done)
	scrapers.Wait()
}

// TestPublishAllocs pins the publish path: claim, store, commit
// allocate nothing.
func TestPublishAllocs(t *testing.T) {
	r := New(64, 3, decodeRec)
	if n := testing.AllocsPerRun(1000, func() { publish(r, 5) }); n != 0 {
		t.Fatalf("publish allocates %v per record", n)
	}
}

// TestNilRing: a nil ring reads empty and serves a well-formed, empty
// envelope.
func TestNilRing(t *testing.T) {
	var r *Ring[rec]
	if got, last, missed := r.Since(3, nil); got != nil || last != 0 || missed != 0 || r.Dropped() != 0 || r.Cap() != 0 {
		t.Fatalf("nil ring: %v %d %d", got, last, missed)
	}
	w := httptest.NewRecorder()
	Handler(r, "recs", func(x *rec) uint64 { return x.v }).ServeHTTP(w, httptest.NewRequest("GET", "/?since=3", nil))
	var env map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || string(env["recs"]) != "[]" || string(env["last"]) != "0" {
		t.Fatalf("nil ring envelope %q: %v", w.Body.String(), err)
	}
}
