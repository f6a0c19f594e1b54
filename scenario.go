package cup

import (
	"fmt"
	"sort"

	internal "cup/internal/cup"
)

// The Scenario API: composable traffic generators and fault scripts,
// consumed identically by both transports. A Traffic produces the
// client query workload as a stream of arrivals; a Fault scripts timed
// interventions against a transport-agnostic control surface; a
// Scenario bundles the two. Install with WithTraffic and WithFaults;
// name a canned scenario from the fixed catalog (ScenarioNames,
// BuildScenario) that cupsim's and cupbench's -scenario flags consume.
type (
	// Traffic generates a run's client query workload.
	Traffic = internal.Traffic
	// TrafficStream yields successive query arrivals for one run.
	TrafficStream = internal.TrafficStream
	// TrafficEnv is a generator's window into one run (seeded RNG,
	// workload shape, query window).
	TrafficEnv = internal.TrafficEnv
	// QueryEvent is one client query arrival.
	QueryEvent = internal.QueryEvent
	// FlashCrowd surges one suddenly hot key over a quiet background.
	FlashCrowd = internal.FlashCrowd
	// DiurnalWave modulates the query rate sinusoidally (day/night load).
	DiurnalWave = internal.DiurnalWave
	// ZipfDrift rotates the Zipf popularity map mid-run.
	ZipfDrift = internal.ZipfDrift
	// ClosedLoop models think-time clients (a true closed loop on the
	// live transport).
	ClosedLoop = internal.ClosedLoop
	// Fault is a scripted intervention (capacity loss, churn).
	Fault = internal.Fault
	// FaultEvent is one timed intervention.
	FaultEvent = internal.FaultEvent
	// FaultSurface is the control plane faults act on; both runtimes
	// implement it.
	FaultSurface = internal.FaultSurface
	// CapacityFault is the §3.7 degraded-capacity experiment.
	CapacityFault = internal.CapacityFault
	// NodeChurn scripts §2.9 membership changes.
	NodeChurn = internal.NodeChurn
	// ReplicaChurn adds and removes replicas of a key over time.
	ReplicaChurn = internal.ReplicaChurn
	// Scenario bundles a traffic generator with fault scripts.
	Scenario = internal.Scenario
)

// AnyNode marks a QueryEvent's node as deployment-chosen: a uniformly
// random alive peer is drawn at delivery time.
const AnyNode = internal.AnyNode

// PoissonTraffic is the paper's default workload (§3.2): network-wide
// Poisson arrivals at rate λ over the configured query window. A
// non-positive rate uses the run's WithQueryRate. Same seed, same
// options: bit-identical counters to the pre-Scenario driver.
func PoissonTraffic(rate float64) Traffic { return internal.PoissonTraffic(rate) }

// scenarios is the fixed scenario catalog cupsim's and cupbench's
// -scenario flags name. Every entry runs on both transports; parameters
// left zero inherit the deployment's options (rate, window, keys), so the
// same scenario scales with WithQueryRate/WithQueryDuration. Builders
// return a fresh value per call so callers may mutate the result. A
// custom scenario installs with WithTraffic and WithFaults.
var scenarios = map[string]func() Scenario{
	"paper":       func() Scenario { return Scenario{Traffic: PoissonTraffic(0)} },
	"flashcrowd":  func() Scenario { return Scenario{Traffic: FlashCrowd{}} },
	"diurnal":     func() Scenario { return Scenario{Traffic: DiurnalWave{}} },
	"zipf-drift":  func() Scenario { return Scenario{Traffic: ZipfDrift{}} },
	"closed-loop": func() Scenario { return Scenario{Traffic: ClosedLoop{}} },
	"capacity": func() Scenario {
		return Scenario{
			Traffic: PoissonTraffic(0),
			Faults:  []Fault{CapacityFault{Capacity: 0.25, Recover: true}},
		}
	},
	"churn": func() Scenario {
		return Scenario{
			Traffic: PoissonTraffic(0),
			Faults:  []Fault{NodeChurn{Rounds: 20}},
		}
	},
	"replica-churn": func() Scenario {
		return Scenario{
			Traffic: PoissonTraffic(0),
			Faults:  []Fault{ReplicaChurn{Rounds: 12, Min: 1}},
		}
	},
}

// ScenarioNames lists the catalog's scenarios in sorted order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuildScenario constructs a catalog scenario by name.
func BuildScenario(name string) (Scenario, error) {
	build := scenarios[name]
	if build == nil {
		return Scenario{}, fmt.Errorf("cup: unknown scenario %q (registered: %v)", name, ScenarioNames())
	}
	sc := build()
	if sc.Name == "" {
		sc.Name = name
	}
	return sc, nil
}
