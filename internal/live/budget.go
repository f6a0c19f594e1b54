// The port ledger: every loopback listener the live runtime opens — one
// per TCP peer, churn joiners included — and each serving HTTP listener
// is drawn against one process-wide cap, so networks side by side fail
// fast with a clear rejection instead of racing the kernel's
// ephemeral-port range into unhelpful bind errors.
package live

import (
	"fmt"
	"sync"
)

// DefaultPortBudget caps the loopback listeners the process may hold in
// total across all live networks and serving layers.
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

// AcquireListeners reserves n HTTP listeners (serving front ends)
// against the same process-wide budget the TCP runtime's peer
// listeners draw from.
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
