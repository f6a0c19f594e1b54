// Resource budgets for side-by-side networks. A multi-trial live sweep
// boots several isolated networks on one machine at once, and three
// resources need explicit carving so N trials cannot exhaust what one
// deployment was provisioned for: per-peer mailbox memory (the inbox
// budget), loopback listeners (the port budget of the TCP runtime), and
// refresh publish rate (the process-wide refresh pacing budget).
package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cup/internal/cup"
)

// MinInboxDepth is the floor a trial network's per-peer mailbox is ever
// carved down to: below this, protocol bursts (a refresh wave fanning
// out through an interest tree) would block peer goroutines on their
// own neighbors' inboxes and the trial would measure backpressure
// artifacts instead of the protocol.
const MinInboxDepth = 64

// TrialInboxDepth carves one deployment's per-peer inbox budget into
// disjoint shares for `concurrent` trial networks running side by side.
// The deployment's configured depth (default cup.DefaultInboxDepth) is
// treated as the machine's mailbox budget per peer slot; each of the
// networks that actually run at once — the worker-pool width, not the
// total trial count — gets an equal share, floored at MinInboxDepth.
func TrialInboxDepth(base, concurrent int) int {
	if base <= 0 {
		base = cup.DefaultInboxDepth
	}
	if concurrent < 1 {
		concurrent = 1
	}
	d := base / concurrent
	if d < MinInboxDepth {
		d = MinInboxDepth
	}
	return d
}

// DefaultPortBudget caps the loopback listeners all concurrently
// running TCP networks may hold in total. One TCPNetwork takes one
// listener per peer; without a shared budget, parallel trial sweeps of
// TCP deployments would race the kernel's ephemeral-port range and fail
// with unhelpful bind errors mid-sweep instead of a clear rejection up
// front.
const DefaultPortBudget = 4096

// portBudget tracks listeners currently held against DefaultPortBudget.
var portBudget struct {
	sync.Mutex
	used int
}

// acquirePorts reserves n loopback listeners against the shared budget,
// failing fast when a new network would overcommit it.
func acquirePorts(n int) error {
	portBudget.Lock()
	defer portBudget.Unlock()
	if portBudget.used+n > DefaultPortBudget {
		return fmt.Errorf("live: port budget exhausted: %d listeners held, %d requested, budget %d",
			portBudget.used, n, DefaultPortBudget)
	}
	portBudget.used += n
	return nil
}

// releasePorts returns n listeners to the budget.
func releasePorts(n int) {
	portBudget.Lock()
	defer portBudget.Unlock()
	portBudget.used -= n
	if portBudget.used < 0 {
		panic("live: port budget released below zero")
	}
}

// AcquireListeners reserves n HTTP listeners (serving or telemetry
// front ends) against the same process-wide budget the TCP runtime's
// peer listeners draw from, so a fleet of deployments with serving
// layers cannot overcommit the loopback range any more than a trial
// sweep can.
func AcquireListeners(n int) error { return acquirePorts(n) }

// ReleaseListeners returns n HTTP listeners to the budget.
func ReleaseListeners(n int) { releasePorts(n) }

// PortsInUse reports listeners currently held against the budget
// (diagnostics and tests).
func PortsInUse() int {
	portBudget.Lock()
	defer portBudget.Unlock()
	return portBudget.used
}

// DefaultRefreshBudget is the process-wide refresh pacing budget:
// the total replica-refresh publishes per second shared by every
// concurrently running live trial network. Refresh pumps are the one
// load source trials generate open-loop on a timer (traffic pumps are
// scripted, faults are scheduled), so an unpaced 64-trial sweep
// multiplies refresh load 64× on one machine. The budget is the LOCKSS
// lesson applied to our own harness: peer dynamics stay rate-limited no
// matter how many replicas run side by side.
const DefaultRefreshBudget = 2048.0

// refreshPacer is a leaky bucket over refresh publishes.
type refreshPacer struct {
	sync.Mutex
	// rate is refreshes/second.
	rate float64
	// next is the earliest instant the next refresh may depart.
	next time.Time
	// paced counts refreshes that had to wait; waited accumulates the
	// total wall-clock delay imposed. Exported via RefreshPacingStats
	// for telemetry.
	paced  uint64
	waited time.Duration
}

var refreshBudget = refreshPacer{rate: DefaultRefreshBudget}

// RefreshBudget reports the refresh budget in force.
func RefreshBudget() float64 { return DefaultRefreshBudget }

// RefreshPacingStats reports how many refreshes were delayed by the
// budget and the total delay imposed (telemetry gauges).
func RefreshPacingStats() (paced uint64, waited time.Duration) {
	refreshBudget.Lock()
	defer refreshBudget.Unlock()
	return refreshBudget.paced, refreshBudget.waited
}

// PaceRefresh blocks until the process-wide refresh budget admits one
// refresh publish, or ctx cancels. Each admitted refresh reserves a
// 1/rate slot; concurrent trial networks therefore share the budget
// first-come-first-served instead of multiplying load.
func PaceRefresh(ctx context.Context) error { return refreshBudget.pace(ctx) }

func (r *refreshPacer) pace(ctx context.Context) error {
	now := time.Now()
	r.Lock()
	slot := time.Duration(float64(time.Second) / r.rate)
	if r.next.Before(now) {
		r.next = now
	}
	wait := r.next.Sub(now)
	r.next = r.next.Add(slot)
	if wait > 0 {
		r.paced++
		r.waited += wait
	}
	r.Unlock()
	if wait <= 0 {
		return nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
