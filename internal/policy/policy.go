// Package policy implements the incentive-based cut-off policies of CUP
// (§3.4 of the paper). On each update arrival for a key with no downstream
// interest, a node consults its policy to decide whether the key's
// popularity — the number of queries received since the last update —
// justifies continuing to receive updates. If not, the node sends a
// Clear-Bit message upstream and its incoming supply of updates stops.
//
// The paper compares probability-based thresholds (linear and logarithmic
// in the node's distance from the authority) against the log-based
// second-chance policy, and finds second-chance consistently best because
// it adapts to query timing rather than topology.
package policy

import (
	"fmt"
	"math"
)

// Policy decides cut-offs and names itself for reports. Keep is consulted
// on each update arrival that triggers a cut-off decision: queries is the
// key's popularity measure (queries received since the previous triggering
// update), dist the node's distance in hops from the authority, and idle
// the key's one word of policy state, zero for a new key, which the
// windowed policies count consecutive idle updates in and the others leave
// alone. Keep returns false to cut off the update supply.
type Policy interface {
	Name() string
	Keep(queries, dist int, idle *int32) bool
}

// stateless adapts a pure decision function into a Policy.
type stateless struct {
	name string
	keep func(queries, dist int) bool
}

func (s *stateless) Name() string                 { return s.name }
func (s *stateless) Keep(q, d int, _ *int32) bool { return s.keep(q, d) }

// AlwaysKeep never cuts off updates — the paper's "all-out push" strategy
// (§3.1), which minimizes latency at maximum overhead. Used with a push
// level to generate Figures 3 and 4.
func AlwaysKeep() Policy {
	return &stateless{"always", func(int, int) bool { return true }}
}

// NeverKeep cuts on the first opportunity; downstream of the authority
// this degenerates CUP to near-standard caching.
func NeverKeep() Policy {
	return &stateless{"never", func(int, int) bool { return false }}
}

// PushLevel keeps updates only within p hops of the authority. This is the
// receiver-side expression of the paper's push level (§3.3); the sender-side
// cap lives in the protocol config.
func PushLevel(p int) Policy {
	return &stateless{fmt.Sprintf("push-level(%d)", p), func(_, d int) bool { return d <= p }}
}

// Linear keeps a key when at least α·D queries arrived since the last
// update, D being the node's distance from the authority (§3.4). Larger α
// demands more popularity and cuts sooner.
func Linear(alpha float64) Policy {
	if alpha < 0 {
		panic("policy: Linear requires alpha >= 0")
	}
	return &stateless{fmt.Sprintf("linear(α=%g)", alpha), func(q, d int) bool {
		return float64(q) >= alpha*float64(d)
	}}
}

// Logarithmic keeps a key when at least α·lg(D) queries arrived since the
// last update. More lenient than Linear: the threshold grows slowly with
// distance from the root (§3.4).
func Logarithmic(alpha float64) Policy {
	if alpha < 0 {
		panic("policy: Logarithmic requires alpha >= 0")
	}
	return &stateless{fmt.Sprintf("log(α=%g)", alpha), func(q, d int) bool {
		if d < 1 {
			return true
		}
		return float64(q) >= alpha*math.Log2(float64(d))
	}}
}

// SecondChance is the paper's log-based policy over the last n=3 update
// arrivals: when an update arrives and no queries have been received since
// the previous update, the key gets a "second chance"; if the next update
// also finds zero queries, the node cuts off. Two consecutive idle updates
// cost two hops — exactly the cost of the one query miss they would have
// saved — so the policy cuts precisely when updates stop paying for
// themselves. It is WindowedIdle(2) under its own name.
func SecondChance() Policy { return windowedIdle{"second-chance", 2} }

// WindowedIdle generalizes second-chance to cut after n consecutive idle
// updates (n = 2 is second-chance). Exposed for the policy-sensitivity
// ablation.
func WindowedIdle(n int) Policy {
	if n < 1 {
		panic("policy: WindowedIdle requires n >= 1")
	}
	return windowedIdle{fmt.Sprintf("windowed-idle(%d)", n), int32(n)}
}

type windowedIdle struct {
	name  string
	limit int32
}

func (w windowedIdle) Name() string { return w.name }

// Keep counts the key's consecutive idle updates in *idle: a query since
// the last update resets the count, and the limit-th idle update cuts.
func (w windowedIdle) Keep(queries, _ int, idle *int32) bool {
	if queries > 0 {
		*idle = 0
		return true
	}
	*idle++
	return *idle < w.limit
}
