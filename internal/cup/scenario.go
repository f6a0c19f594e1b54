package cup

import (
	"fmt"
	"math/rand"

	"cup/internal/overlay"
)

// This file is the fault half of the public Scenario API: scripted
// interventions — capacity loss, node churn, replica churn — expressed
// against a transport-agnostic control surface, so one fault script
// drives both the discrete-event simulator and the live goroutine
// network. A Scenario bundles a Traffic generator with fault scripts;
// WithTraffic and WithFaults install them.

// FaultSurface is the control plane a fault script acts on. Both
// runtimes implement it: the simulator applies interventions in virtual
// time, the live network in wall-clock time. Randomness drawn through
// Rand happens at intervention time, so fault sampling interleaves with
// the rest of the run's randomness exactly as scheduled.
type FaultSurface interface {
	// Size returns the current overlay size.
	Size() int
	// Keys lists the scripted workload's keys.
	Keys() []overlay.Key
	// Replicas returns the configured replicas per workload key.
	Replicas() int
	// Rand is the run's workload RNG.
	Rand() *rand.Rand
	// Alive reports whether a node is present in the overlay.
	Alive(id overlay.NodeID) bool
	// Owner returns the authority for key.
	Owner(key overlay.Key) overlay.NodeID
	// SetCapacity applies an outgoing-update capacity fraction to a set
	// of nodes (§3.7); negative restores full capacity. It fails when a
	// live node could not be reached before the replay ended.
	SetCapacity(ids []overlay.NodeID, c float64) error
	// AddReplica registers replica r of key at its authority (an Append
	// update propagates down the interest tree).
	AddReplica(key overlay.Key, r int)
	// RemoveReplica deletes replica r of key (a Delete update
	// propagates).
	RemoveReplica(key overlay.Key, r int)
	// Join adds one node to the overlay (§2.9). A surface that cannot
	// honor membership changes must return a descriptive error — the run
	// fails rather than silently dropping the scripted event.
	Join() (id overlay.NodeID, err error)
	// Leave removes a node. Unsupported membership or an already-gone
	// node is an error for the same reason.
	Leave(id overlay.NodeID) error
}

// MembershipFault marks fault scripts that require §2.9 membership
// support (Join/Leave) from the surface they run on. Deployment
// construction uses it to reject a membership script on a static
// substrate up front, before any traffic runs.
type MembershipFault interface {
	Fault
	// RequiresMembership reports whether the script will call
	// Join/Leave on its surface.
	RequiresMembership() bool
}

// FaultEvent is one timed intervention into a running deployment.
type FaultEvent struct {
	// At is the intervention instant in seconds since the start of the
	// run (virtual on the simulator, scaled wall-clock on live).
	At float64
	// Do applies the intervention. A non-nil error aborts the run: a
	// fault script that cannot be honored must fail loudly, never no-op.
	Do func(FaultSurface) error
}

// Fault is a scripted fault: Schedule expands it into timed
// interventions for a run whose query window is [start, start+duration]
// seconds.
type Fault interface {
	// Name identifies the script in logs and registries.
	Name() string
	// Schedule expands the script for one run.
	Schedule(start, duration float64) []FaultEvent
}

// Scenario bundles a traffic generator with fault scripts. It is the
// unit the scenario registry hands to cupsim, which installs its two
// halves with WithTraffic and WithFaults; both transports execute it
// through the same Traffic and FaultSurface contracts.
type Scenario struct {
	// Name identifies the scenario in registries and flags.
	Name string
	// Traffic generates the client query workload (PoissonTraffic(0) is
	// the paper's).
	Traffic Traffic
	// Faults are applied on top of the traffic.
	Faults []Fault
}

// CapacityFault is the §3.7 degraded-capacity experiment: a random
// Fraction of nodes operate at Capacity (a fraction of full outgoing
// update capacity) in scheduled windows. With Recover set the schedule
// is the paper's Up-And-Down (reduce, recover, re-sample, repeat);
// otherwise it is Once-Down-Always-Down. The zero value reproduces the
// paper's timing: 20% of nodes, 5 min warmup, 10 min down, 5 min
// stabilize.
type CapacityFault struct {
	// Fraction of nodes affected each round; zero means 0.20.
	Fraction float64
	// Capacity is the reduced outgoing capacity c in [0, 1].
	Capacity float64
	// Recover selects Up-And-Down cycling; false is
	// Once-Down-Always-Down.
	Recover bool
	// Warmup before the first reduction; zero means 300 s.
	Warmup float64
	// Down is how long each reduction lasts; zero means 600 s.
	Down float64
	// Stabilize separates recovery from the next reduction; zero means
	// 300 s.
	Stabilize float64
}

func (f CapacityFault) Name() string {
	if f.Recover {
		return "capacity-up-and-down"
	}
	return "capacity-once-down"
}

// defaults fills the paper's §3.7 timing.
func (f CapacityFault) defaults() CapacityFault {
	if f.Fraction == 0 {
		f.Fraction = 0.20
	}
	if f.Warmup == 0 {
		f.Warmup = 300
	}
	if f.Down == 0 {
		f.Down = 600
	}
	if f.Stabilize == 0 {
		f.Stabilize = 300
	}
	return f
}

// sample picks the affected nodes at intervention time with the run's
// RNG, so capacity runs stay reproducible.
func (f CapacityFault) sample(s FaultSurface) []overlay.NodeID {
	n := int(f.Fraction * float64(s.Size()))
	if n < 1 {
		n = 1
	}
	return sampleAlive(s, n)
}

// sampleAlive draws up to k distinct alive node IDs: it walks a
// permutation of every ID the surface has issued and skips departed
// nodes, so both runtimes sample alike; with every node alive it takes
// the permutation's first k.
func sampleAlive(s FaultSurface, k int) []overlay.NodeID {
	out := make([]overlay.NodeID, 0, k)
	for _, i := range s.Rand().Perm(s.Size()) {
		if len(out) == k {
			break
		}
		if id := overlay.NodeID(i); s.Alive(id) {
			out = append(out, id)
		}
	}
	return out
}

func (f CapacityFault) Schedule(start, duration float64) []FaultEvent {
	f = f.defaults()
	end := start + duration
	if !f.Recover {
		return []FaultEvent{{
			At: start + f.Warmup,
			Do: func(s FaultSurface) error { return s.SetCapacity(f.sample(s), f.Capacity) },
		}}
	}
	var events []FaultEvent
	cycle := f.Down + f.Stabilize
	for at := start + f.Warmup; at < end; at += cycle {
		var affected []overlay.NodeID
		events = append(events,
			FaultEvent{At: at, Do: func(s FaultSurface) error {
				affected = f.sample(s)
				return s.SetCapacity(affected, f.Capacity)
			}},
			FaultEvent{At: at + f.Down, Do: func(s FaultSurface) error {
				return s.SetCapacity(affected, -1)
			}},
		)
	}
	return events
}

// NodeChurn scripts §2.9 membership changes: starting at At, every
// Period a node joins or a random non-authority node departs
// (alternating), Rounds times in total. It requires a churn-capable
// substrate (CAN or Kademlia); on substrates without membership support
// the run fails with a descriptive error — never a silent no-op.
type NodeChurn struct {
	// At is the first intervention in seconds; zero starts one warmup
	// (50 s) into the query window.
	At float64
	// Period separates interventions; zero means 60 s.
	Period float64
	// Rounds is the total number of interventions; zero means 10.
	Rounds int
}

func (c NodeChurn) Name() string { return "node-churn" }

// RequiresMembership marks NodeChurn as a membership script, so
// deployment construction can reject it on static substrates up front.
func (c NodeChurn) RequiresMembership() bool { return true }

func (c NodeChurn) Schedule(start, duration float64) []FaultEvent {
	at, period, rounds := c.At, c.Period, c.Rounds
	if at == 0 {
		at = start + 50
	}
	if period <= 0 {
		period = 60
	}
	if rounds <= 0 {
		rounds = 10
	}
	var events []FaultEvent
	for i := 0; i < rounds; i++ {
		i := i
		events = append(events, FaultEvent{
			At: at + float64(i)*period,
			Do: func(s FaultSurface) error {
				if i%2 == 0 {
					_, err := s.Join()
					return err
				}
				// Depart a random alive node that owns no workload key,
				// so authorities persist (ungraceful authority loss is
				// the hand-over path exercised by the churn tests).
				owners := make(map[overlay.NodeID]bool, len(s.Keys()))
				for _, k := range s.Keys() {
					owners[s.Owner(k)] = true
				}
				for tries := 0; tries < 4*s.Size(); tries++ {
					id := overlay.NodeID(s.Rand().Intn(s.Size()))
					if s.Alive(id) && !owners[id] {
						return s.Leave(id)
					}
				}
				// Every alive node owns a workload key: nothing eligible
				// to depart this round. Not a surface failure.
				return nil
			},
		})
	}
	return events
}

// ReplicaChurn adds and removes replicas of a key over time: every
// Period starting at At, a new replica is added (Append update) and,
// when more than Min remain above the configured baseline, the oldest
// extra replica is deleted (Delete update).
type ReplicaChurn struct {
	// At is the first intervention in seconds; zero starts one warmup
	// (50 s) into the query window.
	At float64
	// Period separates interventions; zero means 60 s.
	Period float64
	// Rounds is the number of add(+remove) rounds; zero means 10.
	Rounds int
	// Min is the minimum replica index kept alive during churn.
	Min int
	// Key is the churned key; empty uses the first workload key.
	Key overlay.Key
}

func (c ReplicaChurn) Name() string { return "replica-churn" }

func (c ReplicaChurn) Schedule(start, duration float64) []FaultEvent {
	at, period, rounds := c.At, c.Period, c.Rounds
	if at == 0 {
		at = start + 50
	}
	if period <= 0 {
		period = 60
	}
	if rounds <= 0 {
		rounds = 10
	}
	var events []FaultEvent
	for i := 0; i < rounds; i++ {
		i := i
		events = append(events, FaultEvent{
			At: at + float64(i)*period,
			Do: func(s FaultSurface) error {
				k := c.Key
				if k == "" {
					if keys := s.Keys(); len(keys) > 0 {
						k = keys[0]
					} else {
						return nil
					}
				}
				next := s.Replicas() + i
				s.AddReplica(k, next)
				if prev := next - 1; prev >= c.Min && prev >= s.Replicas() {
					s.RemoveReplica(k, prev)
				}
				return nil
			},
		})
	}
	return events
}

// simSurface adapts the discrete-event Simulation to FaultSurface, and to
// Members (churn.go).
type simSurface struct{ s *Simulation }

func (a simSurface) Size() int                            { return a.s.nodes.size }
func (a simSurface) Keys() []overlay.Key                  { return a.s.Keys }
func (a simSurface) Replicas() int                        { return a.s.P.Replicas }
func (a simSurface) Rand() *rand.Rand                     { return a.s.Rng.Rand }
func (a simSurface) Alive(id overlay.NodeID) bool         { return a.s.NodeAlive(id) }
func (a simSurface) Owner(key overlay.Key) overlay.NodeID { return a.s.Ov.Owner(key) }
func (a simSurface) SetCapacity(ids []overlay.NodeID, c float64) error {
	a.s.SetCapacityFraction(ids, c)
	return nil
}
func (a simSurface) AddReplica(key overlay.Key, r int)    { a.s.AddReplica(key, r) }
func (a simSurface) RemoveReplica(key overlay.Key, r int) { a.s.RemoveReplica(key, r) }

// Join and Leave are §2.9 churn on the run (Churn). From the first
// change on, next hops are not memoized.
func (a simSurface) Join() (overlay.NodeID, error) {
	a.s.Router.Dynamic = true
	return a.s.churn().Join(a)
}

func (a simSurface) Leave(id overlay.NodeID) error {
	a.s.Router.Dynamic = true
	_, err := a.s.churn().Leave(a, id)
	return err
}

// applyFault runs one scripted intervention against the simulation,
// recording a descriptive failure for RunContext/Settle/Lookup to
// surface: fault scripts a transport cannot honor abort the run instead
// of silently doing nothing.
func (s *Simulation) applyFault(name string, ev FaultEvent) {
	if err := ev.Do(simSurface{s}); err != nil {
		s.recordFaultErr(fmt.Errorf("cup: fault %q at t=%gs: %w", name, ev.At, err))
	}
}
