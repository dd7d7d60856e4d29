package translator

import (
	"math"
	"math/bits"
)

// tokenBucket is the translator's RDMA rate limiter (§5.2): it protects
// the collector NIC during congestion by capping emitted messages per
// second, dropping (with a counter and a rate-gated journal event)
// rather than queueing.
//
// The arithmetic is integer throughout. The previous float64
// implementation accumulated `Δns × rate / 1e9` per call; with
// fractional per-nanosecond rates (any rate not a multiple of 1e9/ns)
// each small refill rounds in float space, and over millions of calls
// the bucket drifts — sustained fractional rates under-admit. Here
// tokens are held in nanotokens (1e-9 token) and the sub-nanotoken
// residue of every refill is carried exactly in rem, so the admitted
// count over any horizon is within one token of rate × elapsed.
type tokenBucket struct {
	rateNano  uint64 // nanotokens credited per second (= rate tokens/s)
	burstNano uint64 // bucket capacity in nanotokens
	fillNs    uint64 // Δns that fills the bucket from empty (refill clamp)
	tokNano   uint64 // current level in nanotokens
	rem       uint64 // carried refill residue, in nanotoken·ns units (< 1e9)
	last      uint64 // ns of the most recent refill
}

const nanoPerToken = 1_000_000_000

// newTokenBucket builds a bucket admitting rate tokens per second with
// the given burst capacity (tokens, fractional allowed). The bucket
// starts full. Returns nil for a non-positive rate (limiter disabled).
func newTokenBucket(rate, burst float64) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1 // a bucket that can never hold one whole token admits nothing
	}
	// Clamp so rate×1e9 fits uint64 (overflows above ~1.8e10) and so
	// refill's 128-bit product d×rateNano stays under the Div64
	// precondition (d < fillNs ⇒ product ≲ burstNano×1e9 < 1e9×2^64).
	// 1e9 messages/s is already far beyond any RDMA NIC.
	if rate > 1e9 {
		rate = 1e9
	}
	if burst > 1e9 {
		burst = 1e9
	}
	tb := &tokenBucket{
		rateNano:  uint64(math.Round(rate * nanoPerToken)),
		burstNano: uint64(math.Round(burst * nanoPerToken)),
	}
	if tb.rateNano == 0 {
		tb.rateNano = 1 // sub-nanotoken rates still trickle, never stall
	}
	tb.tokNano = tb.burstNano
	tb.fillNs = uint64(math.Ceil(burst/rate*1e9)) + 1
	return tb
}

// refill credits tokens for the time elapsed since the last refill.
func (tb *tokenBucket) refill(nowNs uint64) {
	if nowNs <= tb.last {
		return
	}
	d := nowNs - tb.last
	tb.last = nowNs
	if d >= tb.fillNs {
		tb.tokNano = tb.burstNano
		tb.rem = 0
		return
	}
	// gained = (d × rateNano + rem) / 1e9 nanotokens, residue carried.
	// d < fillNs keeps the 128-bit product under 1e9 × 2^64, the
	// precondition of Div64.
	hi, lo := bits.Mul64(d, tb.rateNano)
	lo, carry := bits.Add64(lo, tb.rem, 0)
	hi += carry
	gained, rem := bits.Div64(hi, lo, nanoPerToken)
	tb.rem = rem
	if tb.tokNano += gained; tb.tokNano > tb.burstNano {
		tb.tokNano = tb.burstNano
		tb.rem = 0
	}
}

// allow reports whether n tokens may be spent at nowNs, consuming them if
// so. A nil bucket always allows.
func (tb *tokenBucket) allow(nowNs uint64, n int) bool {
	if tb == nil {
		return true
	}
	tb.refill(nowNs)
	need := uint64(n) * nanoPerToken
	if tb.tokNano < need {
		return false
	}
	tb.tokNano -= need
	return true
}
