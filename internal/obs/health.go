package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// HealthRule is one machine-evaluated SLO check over the registry:
// given the current snapshot, the delta since the previous evaluation
// and the interval between them, it returns a verdict with a
// human-readable reason. Rules are pure functions of the snapshots, so
// they compose freely and table-test trivially.
type HealthRule struct {
	Name string
	Eval func(cur, delta *Snapshot, elapsed time.Duration) RuleResult
}

// RuleResult is one rule's verdict.
type RuleResult struct {
	Name      string  `json:"name"`
	Healthy   bool    `json:"healthy"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Reason    string  `json:"reason"`
}

// HealthStatus is a full evaluation: the conjunction of every rule.
type HealthStatus struct {
	Healthy bool         `json:"healthy"`
	At      time.Time    `json:"at"`
	Window  string       `json:"window"` // interval the delta rules evaluated over
	Rules   []RuleResult `json:"rules"`
}

// HealthEvaluator runs a rule set against a registry, diffing
// consecutive snapshots so rate rules see interval deltas, not lifetime
// totals. The first evaluation's window is "since the evaluator was
// built". Safe for concurrent use; each Eval advances the window.
type HealthEvaluator struct {
	reg   *Registry
	rules []HealthRule

	mu     sync.Mutex
	prev   *Snapshot
	prevAt time.Time
}

// NewHealthEvaluator builds an evaluator; with no explicit rules it
// installs DefaultHealthRules over DefaultHealthThresholds. A nil
// registry (telemetry off) always evaluates healthy.
func NewHealthEvaluator(reg *Registry, rules ...HealthRule) *HealthEvaluator {
	if len(rules) == 0 {
		rules = DefaultHealthRules(DefaultHealthThresholds())
	}
	return &HealthEvaluator{reg: reg, rules: rules, prevAt: time.Now()}
}

// Eval snapshots the registry, runs every rule over the interval since
// the previous Eval, and returns the combined verdict. Nil-safe.
func (e *HealthEvaluator) Eval() HealthStatus {
	if e == nil || e.reg == nil {
		return HealthStatus{Healthy: true, At: time.Now()}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.reg.Snapshot()
	elapsed := cur.At.Sub(e.prevAt)
	if elapsed < time.Millisecond {
		elapsed = time.Millisecond // back-to-back evals: avoid rate blow-up
	}
	delta := cur.Delta(e.prev)
	st := HealthStatus{Healthy: true, At: cur.At, Window: elapsed.Round(time.Millisecond).String()}
	for _, r := range e.rules {
		res := r.Eval(cur, delta, elapsed)
		res.Name = r.Name
		if !res.Healthy {
			st.Healthy = false
		}
		st.Rules = append(st.Rules, res)
	}
	e.prev, e.prevAt = cur, cur.At
	return st
}

// HealthThresholds parameterises the default rule set. Zero-valued
// rates mean "any sustained occurrence is unhealthy" — drops and
// degraded writes indicate capacity or availability loss, so the
// default posture is strict. Ring stalls get an allowance: a saturated
// producer briefly outrunning the WAL flusher is ordinary backpressure,
// and only a sustained storm means the disk has fallen behind.
type HealthThresholds struct {
	// MaxDropRate bounds dropped reports/sec (engine backpressure drops
	// plus translator rate-limit drops).
	MaxDropRate float64
	// MaxRingStallRate bounds WAL ring-full producer stalls/sec (the
	// flusher, i.e. the disk, not keeping up).
	MaxRingStallRate float64
	// MaxDegradedRate bounds HA degraded+lost writes/sec (fan-outs that
	// missed at least one replica).
	MaxDegradedRate float64
	// MaxDownReplicas bounds collectors currently marked down.
	MaxDownReplicas float64
	// MaxFsyncP99 bounds the WAL fsync latency p99 over the window.
	MaxFsyncP99 time.Duration
}

// DefaultHealthThresholds is the strict default posture.
func DefaultHealthThresholds() HealthThresholds {
	return HealthThresholds{MaxRingStallRate: 1000, MaxFsyncP99: time.Second}
}

// sumCounters sums every series carrying one of the given names across
// all label sets (e.g. per-collector, per-shard).
func sumCounters(s *Snapshot, names ...string) float64 {
	var total float64
	for i := range s.Values {
		v := &s.Values[i]
		for _, n := range names {
			if v.Name == n {
				total += v.Value
				break
			}
		}
	}
	return total
}

// maxGauge returns the largest value among series with the given name
// (0 when absent — a subsystem that never registered is healthy).
func maxGauge(s *Snapshot, name string) float64 {
	var max float64
	for i := range s.Values {
		if v := &s.Values[i]; v.Name == name && v.Value > max {
			max = v.Value
		}
	}
	return max
}

// maxQuantile returns the largest q-quantile among histogram series
// with the given name that saw observations in the window.
func maxQuantile(s *Snapshot, name string, q float64) (worst float64, observed uint64) {
	for i := range s.Values {
		v := &s.Values[i]
		if v.Name != name || v.Count == 0 {
			continue
		}
		observed += v.Count
		if est := v.Quantile(q); est > worst {
			worst = est
		}
	}
	return worst, observed
}

// rateRule builds a "sum of these counters per second must stay under
// max" rule.
func rateRule(name, what, unit string, max float64, counters ...string) HealthRule {
	return HealthRule{Name: name, Eval: func(_, delta *Snapshot, elapsed time.Duration) RuleResult {
		n := sumCounters(delta, counters...)
		rate := n / elapsed.Seconds()
		res := RuleResult{Healthy: rate <= max, Value: rate, Threshold: max}
		if n == 0 {
			res.Reason = "no " + what + " in window"
		} else {
			res.Reason = fmt.Sprintf("%.0f %s (%.1f %s/s, max %.1f/s)", n, what, rate, unit, max)
		}
		return res
	}}
}

// DefaultHealthRules is the stock SLO set: ingest drops, WAL ring
// stalls, HA write degradation, down replicas, sticky WAL failure, and
// WAL fsync latency.
func DefaultHealthRules(t HealthThresholds) []HealthRule {
	return []HealthRule{
		rateRule("drop_rate", "dropped reports", "drops", t.MaxDropRate,
			"dta_engine_dropped_total", "dta_rate_dropped_total"),
		rateRule("wal_ring_stalls", "WAL ring stalls", "stalls", t.MaxRingStallRate,
			"dta_wal_ring_stalls_total"),
		rateRule("degraded_writes", "degraded/lost writes", "writes", t.MaxDegradedRate,
			"dta_ha_degraded_writes_total", "dta_ha_lost_writes_total"),
		{Name: "down_replicas", Eval: func(cur, _ *Snapshot, _ time.Duration) RuleResult {
			n := maxGauge(cur, "dta_ha_down_replicas")
			res := RuleResult{Healthy: n <= t.MaxDownReplicas, Value: n, Threshold: t.MaxDownReplicas}
			if n == 0 {
				res.Reason = "all replicas up"
			} else {
				res.Reason = fmt.Sprintf("%.0f collector(s) marked down", n)
			}
			return res
		}},
		{Name: "wal_failed", Eval: func(cur, _ *Snapshot, _ time.Duration) RuleResult {
			// dta_wal_failed_errno mirrors the writer's sticky failure:
			// one dead disk anywhere in the cluster flips health
			// immediately, instead of only failing later barriers.
			n := maxGauge(cur, "dta_wal_failed_errno")
			if n == 0 {
				// A healthy fleet may carry a negative sentinel nowhere;
				// also check the minimum for the -1 non-errno case.
				for i := range cur.Values {
					if v := &cur.Values[i]; v.Name == "dta_wal_failed_errno" && v.Value < 0 {
						n = v.Value
						break
					}
				}
			}
			res := RuleResult{Healthy: n == 0, Value: n}
			switch {
			case n == 0:
				res.Reason = "no sticky WAL failure"
			case n < 0:
				res.Reason = "WAL flusher failed (sticky): unknown error"
			default:
				res.Reason = fmt.Sprintf("WAL flusher failed (sticky): %s", syscall.Errno(int(n)).Error())
			}
			return res
		}},
		{Name: "fsync_p99", Eval: func(_, delta *Snapshot, _ time.Duration) RuleResult {
			maxNs := float64(t.MaxFsyncP99.Nanoseconds())
			p99, observed := maxQuantile(delta, "dta_wal_fsync_ns", 0.99)
			res := RuleResult{Healthy: p99 <= maxNs, Value: p99, Threshold: maxNs}
			if observed == 0 {
				res.Reason = "no fsyncs in window"
			} else {
				res.Reason = fmt.Sprintf("p99 ≈ %s over %d fsyncs (max %s)",
					time.Duration(p99).Round(time.Microsecond), observed, t.MaxFsyncP99)
			}
			return res
		}},
	}
}

// HealthHandler serves an evaluation as JSON: HTTP 200 when healthy,
// 503 when any rule fails, with per-rule reasons either way. Nil-safe
// (a nil evaluator always serves healthy).
func HealthHandler(e *HealthEvaluator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := e.Eval()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !st.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
}
