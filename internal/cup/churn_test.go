package cup

import (
	"strings"
	"testing"

	"cup/internal/overlay"
	"cup/internal/sim"
)

func churnParams() Params {
	return Params{Nodes: 64, QueryRate: 3, QueryDuration: 900, Seed: 17}
}

// join and leave drive churn through the run's fault surface, where the
// change must succeed.
func join(t *testing.T, s *Simulation) overlay.NodeID {
	t.Helper()
	id, err := simSurface{s}.Join()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func leave(t *testing.T, s *Simulation, victim overlay.NodeID) {
	t.Helper()
	if err := (simSurface{s}).Leave(victim); err != nil {
		t.Fatal(err)
	}
}

func TestJoinNodeGrowsMembership(t *testing.T) {
	s := NewSimulation(churnParams())
	before := len(s.Nodes)
	s.Sched.At(400, func() {
		id := join(t, s)
		if int(id) != before {
			t.Errorf("joined id = %v, want %d", id, before)
		}
		if !s.NodeAlive(id) {
			t.Error("joined node not alive")
		}
	})
	res := s.Run()
	if len(s.Nodes) != before+1 {
		t.Fatalf("nodes = %d, want %d", len(s.Nodes), before+1)
	}
	if res.Counters.Queries == 0 {
		t.Fatal("no queries ran")
	}
}

func TestLeaveNodeHandsOverAuthority(t *testing.T) {
	s := NewSimulation(churnParams())
	k := s.Keys[0]
	s.Sched.At(400, func() {
		auth := s.Ov.Owner(k)
		entriesBefore := s.Nodes[auth].LocalDirectory().Len()
		if entriesBefore == 0 {
			t.Error("authority had no local entries before leaving")
		}
		leave(t, s, auth)
		if s.NodeAlive(auth) {
			t.Error("departed node still alive")
		}
		newAuth := s.Ov.Owner(k)
		if newAuth == auth {
			t.Error("ownership did not move")
		}
		// On the CAN the new authority is the heir that absorbed the zone,
		// and it holds the handed-over directory.
		if s.Nodes[newAuth].LocalDirectory().Len() < entriesBefore {
			t.Errorf("heir holds %d entries, want ≥ %d",
				s.Nodes[newAuth].LocalDirectory().Len(), entriesBefore)
		}
	})
	res := s.Run()
	if res.Counters.Misses() == 0 {
		t.Fatal("suspiciously perfect run under churn")
	}
}

func TestQueriesSurviveContinuousChurn(t *testing.T) {
	s := NewSimulation(churnParams())
	// Alternate joins and leaves every 50 s across the query window.
	for i := 0; i < 12; i++ {
		i := i
		s.Sched.At(sim.Time(350+50*i), func() {
			if i%2 == 0 {
				join(t, s)
			} else {
				alive := s.aliveSample()
				leave(t, s, alive)
			}
		})
	}
	res := s.Run()
	if res.Counters.Queries < 100 {
		t.Fatalf("queries = %d", res.Counters.Queries)
	}
	// Every served miss delivered an answer; the run completing without a
	// routing panic is the §2.9 seamlessness claim.
	if res.Counters.MissesServed == 0 {
		t.Fatal("no misses served under churn")
	}
}

// aliveSample picks a random alive, non-authority node for departure.
func (s *Simulation) aliveSample() overlay.NodeID {
	auth := s.Ov.Owner(s.Keys[0])
	for {
		id := overlay.NodeID(s.Rng.Pick(len(s.Nodes)))
		if s.NodeAlive(id) && id != auth {
			return id
		}
	}
}

func TestChurnCapableByKind(t *testing.T) {
	for kind, want := range map[string]bool{
		"can": true, "kademlia": true, "chord": false, "no-such-kind": false,
	} {
		if got := ChurnCapable(kind); got != want {
			t.Errorf("ChurnCapable(%q) = %v, want %v", kind, got, want)
		}
	}
}

func TestChurnRequiresDynamicOverlay(t *testing.T) {
	p := churnParams()
	p.OverlayKind = "chord"
	surf := simSurface{NewSimulation(p)}
	if _, err := surf.Join(); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("Join on chord: err = %v, want the unsupported-churn error", err)
	}
	if err := surf.Leave(3); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("Leave on chord: err = %v, want the unsupported-churn error", err)
	}
}

func TestQueriesSurviveContinuousChurnOnKademlia(t *testing.T) {
	p := churnParams()
	p.OverlayKind = "kademlia"
	s := NewSimulation(p)
	for i := 0; i < 12; i++ {
		i := i
		s.Sched.At(sim.Time(350+50*i), func() {
			if i%2 == 0 {
				join(t, s)
			} else {
				leave(t, s, s.aliveSample())
			}
		})
	}
	res := s.Run()
	if res.Counters.Queries < 100 {
		t.Fatalf("queries = %d", res.Counters.Queries)
	}
	if res.Counters.MissesServed == 0 {
		t.Fatal("no misses served under churn")
	}
}

func TestKademliaLeaveRedistributesAuthority(t *testing.T) {
	p := churnParams()
	p.OverlayKind = "kademlia"
	s := NewSimulation(p)
	k := s.Keys[0]
	s.Sched.At(400, func() {
		auth := s.Ov.Owner(k)
		entriesBefore := s.Nodes[auth].LocalDirectory().Len()
		if entriesBefore == 0 {
			t.Error("authority had no local entries before leaving")
		}
		leave(t, s, auth)
		if s.NodeAlive(auth) {
			t.Error("departed node still alive")
		}
		newAuth := s.Ov.Owner(k)
		if newAuth == auth {
			t.Error("ownership did not move")
		}
		// Per-key redistribution: the key's entries now live at its new
		// XOR-closest owner, so refreshes continue without re-propagation.
		if s.Nodes[newAuth].LocalDirectory().Len() < entriesBefore {
			t.Errorf("new authority holds %d entries, want ≥ %d",
				s.Nodes[newAuth].LocalDirectory().Len(), entriesBefore)
		}
	})
	s.Run()
}

func TestNodeAliveBounds(t *testing.T) {
	s := NewSimulation(churnParams())
	if s.NodeAlive(-1) || s.NodeAlive(overlay.NodeID(len(s.Nodes))) {
		t.Fatal("out-of-range IDs reported alive")
	}
	if !s.NodeAlive(0) {
		t.Fatal("node 0 not alive")
	}
}

func TestPatchingClearsDepartedInterest(t *testing.T) {
	s := NewSimulation(churnParams())
	var victim overlay.NodeID
	s.Sched.At(600, func() {
		// Find a node with interest registered at some neighbor.
		k := s.Keys[0]
		auth := s.Ov.Owner(k)
		interested := s.Nodes[auth].InterestedNeighbors(k)
		if len(interested) == 0 {
			return // workload produced no subscription at the authority yet
		}
		victim = interested[0]
		leave(t, s, victim)
		for _, m := range s.Nodes[auth].InterestedNeighbors(k) {
			if m == victim {
				t.Error("authority still lists departed neighbor as interested")
			}
		}
	})
	s.Run()
}

// A clear-bit parked for piggybacking (§2.7) whose receiver departs before
// it arrives is dropped like any other message in flight — whether it went
// standalone when its window closed or rode a carrier: the departed node
// handles nothing, emits nothing, and no hop is counted.
func TestHeldClearBitToDepartedNodeIsDropped(t *testing.T) {
	for _, carried := range []bool{false, true} {
		cutoffs := 0
		s := NewSimulation(Params{Nodes: 32, NoWorkload: true, Seed: 3, PiggybackClearBits: true,
			Observer: ObserverFunc(func(e Event) {
				if e.Kind == EvCutoffFired {
					cutoffs++
				}
			})})
		k := s.Keys[0]
		kid := s.env.keys.intern(k)
		// A link from → to whose receiver has an upstream of its own, so
		// handling the clear-bit would make it cut off in turn.
		from, to := overlay.NoNode, overlay.NoNode
		for i := range s.Nodes {
			next := s.Router.NextHopTowardOwner(overlay.NodeID(i), k)
			if next != overlay.NodeID(i) && next != s.Ov.Owner(k) {
				from, to = overlay.NodeID(i), next
				break
			}
		}
		if from == overlay.NoNode {
			t.Fatal("no two-hop route toward the owner in this overlay")
		}
		ks := s.state(to, kid)
		ks.interest.add(from)

		s.holdClearBit(from, to, kid)
		if carried {
			s.dispatch(from, []Action{{Kind: ActSendQuery, To: to, Key: k, kid: kid}})
		}
		leave(t, s, to)
		for s.Sched.Step() {
		}
		if carried && s.C.PiggybackedClearBits != 1 {
			t.Fatalf("carried: PiggybackedClearBits = %d, want 1", s.C.PiggybackedClearBits)
		}
		if !ks.interest.has(from) || cutoffs != 0 {
			t.Errorf("carried=%v: the departed node handled the clear-bit (interest kept: %v, cut-offs fired: %d)",
				carried, ks.interest.has(from), cutoffs)
		}
		if s.C.ClearBitHops != 0 || s.C.QueryHops != 0 {
			t.Errorf("carried=%v: hops counted at a departed node: %d clear-bit, %d query",
				carried, s.C.ClearBitHops, s.C.QueryHops)
		}
	}
}
