package cup

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cup/internal/cache"
	"cup/internal/overlay"
	"cup/internal/policy"
	"cup/internal/sim"
)

// These tests keep the query hit path free: a local hit on a maintained
// cache is one key-state lookup and a read of the entry set it holds — no
// allocation, no lock — and the two devices that make it so (the owner's
// reusable action buffer, the next hop cached on the key state) keep their
// contracts.

// warm leaves n holding a fresh cached answer for k: a local miss sets
// the pending flag, the first-time response fills the cache.
func warm(n *Node, k overlay.Key) {
	n.HandleQuery(LocalClient, k, 0)
	n.HandleUpdate(n.ID()-1, firstTime(k, 1, 1e9))
}

func wantHit(t *testing.T, acts []Action) {
	t.Helper()
	if len(acts) != 1 || acts[0].Kind != ActDeliverLocal || len(acts[0].Entries) != 1 {
		t.Fatalf("warm local query did not hit: %v", kinds(acts))
	}
}

// simHits are the three ways a simulated client arrival hits, each on a
// 64-node run that warmSim readies: at a node holding a fresh CUP answer
// cached from a first-time response, at the key's authority, which answers
// from its local directory, and at a standard-caching node holding its own
// client's earlier answer (client-side TTL caching). offset places the
// asker past the key's owner.
var simHits = []struct {
	name   string
	cfg    func() Config
	offset overlay.NodeID
}{
	{"cup-cached", Defaults, 1},
	{"authority", Defaults, 0},
	{"standard-client", Standard, 1},
}

// warmSim publishes one replica of key-0 and, unless the asker — the node
// offset past the key's owner — is the owner itself, lets it miss once and
// cache the answer, so its next local query hits. obs is the run's observer
// from the start, nil for none. It returns the run, the asker and the key,
// whose one replica a hit answers with.
func warmSim(tb testing.TB, cfg Config, obs Observer, offset overlay.NodeID) (*Simulation, overlay.NodeID, overlay.Key) {
	tb.Helper()
	s := NewSimulation(Params{Nodes: 64, NoWorkload: true, Seed: 1, Config: cfg, Observer: obs})
	k := s.Keys[0]
	s.PublishReplica(k, 0, "10.0.0.1", 1e6, Append)
	asker := (s.Ov.Owner(k) + offset) % overlay.NodeID(s.Size())
	if asker != s.Ov.Owner(k) {
		s.PostQueryAt(asker, k) // first-time miss; the answer comes back
		for s.Sched.Step() {
		}
		if s.C.Hits != 0 || s.C.MissesServed != 1 {
			tb.Fatalf("warm-up: %+v", s.C)
		}
	}
	return s, asker, k
}

func TestLocalHitAllocatesNothing(t *testing.T) {
	clk := &fakeClock{t: 10}
	t.Run("standalone", func(t *testing.T) {
		n := newTestNode(5, Defaults(), clk)
		warm(n, "k")
		wantHit(t, n.HandleQuery(LocalClient, "k", 0))
		if allocs := testing.AllocsPerRun(1000, func() { n.HandleQuery(LocalClient, "k", 0) }); allocs != 0 {
			t.Errorf("standalone node: a local hit allocates %.1f, want 0", allocs)
		}
	})
	t.Run("block", func(t *testing.T) {
		_, block := testOwner(8)
		n := &block[5]
		warm(n, "k")
		wantHit(t, n.HandleQuery(LocalClient, "k", 0))
		if allocs := testing.AllocsPerRun(1000, func() { n.HandleQuery(LocalClient, "k", 0) }); allocs != 0 {
			t.Errorf("node of a block: a local hit allocates %.1f, want 0", allocs)
		}
	})
	// The live peer's shape: one node holding thousands of keys, asked by
	// string key — one hashed lookup in the intern table, one probe.
	t.Run("standalone-4096-keys", func(t *testing.T) {
		n := newTestNode(5, Defaults(), clk)
		keys := make([]overlay.Key, 4096)
		for i := range keys {
			keys[i] = overlay.Key(fmt.Sprintf("key-%d", i))
			warm(n, keys[i])
		}
		i := 0
		allocs := testing.AllocsPerRun(4096, func() {
			acts := n.HandleQuery(LocalClient, keys[i*2039%len(keys)], 0)
			if len(acts) != 1 || acts[0].Kind != ActDeliverLocal {
				t.Fatalf("query %d for %q did not hit", i, keys[i*2039%len(keys)])
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("a local hit by string key among 4096 allocates %.1f, want 0", allocs)
		}
	})
	// A simulated arrival: PostQueryAt at a warm node, each way a hit can
	// be answered.
	t.Run("simulation", func(t *testing.T) {
		for _, h := range simHits {
			t.Run(h.name, func(t *testing.T) {
				s, at, k := warmSim(t, h.cfg(), nil, h.offset)
				hits := s.C.Hits
				if allocs := testing.AllocsPerRun(1000, func() { s.PostQueryAt(at, k) }); allocs != 0 {
					t.Errorf("a %s hit through PostQueryAt allocates %.1f, want 0", h.name, allocs)
				}
				if s.C.Hits-hits < 1000 || s.C.Queries != s.C.Hits+s.C.MissesServed {
					t.Errorf("the measured queries were not hits: %+v", s.C)
				}
			})
		}
	})
	// A simulation's nodes — the block it was built with and a churn
	// joiner alike — share one owner and get their state from the same
	// code.
	for _, joiner := range []bool{false, true} {
		name := "PostQueryAt"
		if joiner {
			name = "PostQueryAt/joiner"
		}
		t.Run(name, func(t *testing.T) {
			// A bus nobody listens to any more — what a façade run keeps
			// once its listeners detach — must not cost a hit anything.
			s := NewSimulation(Params{Nodes: 64, NoWorkload: true, Seed: 1, Observer: NewBus()})
			k := overlay.Key("key-0")
			s.PublishReplica(k, 0, "10.0.0.1", 1e6, Append)
			asker := (s.Ov.Owner(k) + 1) % overlay.NodeID(s.Size())
			if joiner {
				asker = join(t, s)
				if asker == s.Ov.Owner(k) {
					t.Skip("the joiner took over the key: its queries are authority hits")
				}
			}
			s.PostQueryAt(asker, k) // first-time miss; the answer comes back
			for s.Sched.Step() {
			}
			if s.C.Hits != 0 || s.C.MissesServed != 1 {
				t.Fatalf("warm-up: %+v", s.C)
			}
			if allocs := testing.AllocsPerRun(1000, func() { s.PostQueryAt(asker, k) }); allocs != 0 {
				t.Errorf("a local hit through PostQueryAt allocates %.1f, want 0", allocs)
			}
			if s.C.Hits < 1000 || s.C.Queries != s.C.Hits+1 {
				t.Errorf("the measured queries were not hits: %+v", s.C)
			}
		})
	}
}

// A simulated hit is answered where it arrives: observed, it emits exactly
// the query's issue and its answer at the asked node, the answer carrying
// the entries it was answered with and no latency; unobserved, it emits
// nothing, and counts as a hit all the same.
func TestSimulatedHitEvents(t *testing.T) {
	for _, h := range simHits {
		t.Run(h.name, func(t *testing.T) {
			var got []Event
			rec := ObserverFunc(func(e Event) { got = append(got, e) })
			s, at, k := warmSim(t, h.cfg(), rec, h.offset)
			got = nil
			s.PostQueryAt(at, k)
			now := s.Sched.Now()
			want := []Event{
				{Kind: EvQueryIssued, Time: now, Node: at, Peer: LocalClient, Key: k},
				{Kind: EvQueryAnswered, Time: now, Node: at, Peer: LocalClient, Key: k, Entries: 1},
			}
			if !slices.Equal(got, want) {
				t.Fatalf("an observed hit emitted\n%+v\nwant\n%+v", got, want)
			}
			if s.C.Hits != 1 {
				t.Fatalf("Hits = %d, want 1", s.C.Hits)
			}

			s.SetObserver(nil)
			got = nil
			s.PostQueryAt(at, k)
			s.SetObserver(rec)
			if len(got) != 0 || s.C.Hits != 2 {
				t.Fatalf("an unobserved hit emitted %+v and left Hits at %d", got, s.C.Hits)
			}
		})
	}
}

// hopChain returns a run, its key, and three consecutive nodes a → b → c
// on a route toward the key's authority, c short of it: the fixture of
// the message-hop pins and BenchmarkMessageHop.
func hopChain(tb testing.TB) (s *Simulation, kid KeyID, a, b, c overlay.NodeID) {
	cfg := Defaults()
	cfg.Policy = policy.AlwaysKeep()
	s = NewSimulation(Params{Nodes: 64, NoWorkload: true, Seed: 1, Config: cfg, Observer: NewBus()})
	k := s.Keys[0]
	for i := range s.Size() {
		a = overlay.NodeID(i)
		b = s.Router.NextHopTowardOwner(a, k)
		c = s.Router.NextHopTowardOwner(b, k)
		if a != b && b != c && c != s.Ov.Owner(k) {
			return s, s.env.keys.intern(k), a, b, c
		}
	}
	tb.Fatal("no three-hop route toward the owner in this overlay")
	return
}

// fanOut subscribes three nodes other than b and c — a first — to b's
// updates for kid, and returns them.
func fanOut(s *Simulation, kid KeyID, a, b, c overlay.NodeID) []overlay.NodeID {
	subs := []overlay.NodeID{a}
	for i := 0; len(subs) < 3; i++ {
		if id := overlay.NodeID(i); id != a && id != b && id != c {
			subs = append(subs, id)
		}
	}
	bks := s.state(b, kid)
	for _, m := range subs {
		bks.interest.add(m)
		s.state(m, kid)
	}
	return subs
}

// state returns (allocating if needed) node nid's bookkeeping for key kid.
func (s *Simulation) state(nid overlay.NodeID, kid KeyID) *keyState {
	return s.nodes.at(nid).state(kid)
}

// send puts one message in flight the way dispatch does; u is an
// update's payload.
func (s *Simulation) send(kind ActionKind, from, to overlay.NodeID, kid KeyID, u *Update) {
	ref, m := s.take(kind, from, to, kid)
	if u != nil {
		m.u = *u
	}
	s.post(ref)
}

// steps delivers the next n messages.
func steps(s *Simulation, n int) {
	for ; n > 0; n-- {
		if !s.Sched.Step() {
			panic("nothing in flight")
		}
	}
}

// A protocol message in flight is a value in the run's slab and an index
// in the scheduler's lane: putting one in flight and delivering it
// allocates nothing, for each of the three things CUP sends. Nor do the
// receiving handlers: a refresh edits a cached set that no view has left
// in place, so a hop of each shape allocates nothing at all.
func TestMessageHopAllocatesNothing(t *testing.T) {
	// b has no answer and no query pending: it forwards a's query one hop
	// to c, whose own query is in flight, so the query coalesces there.
	t.Run("query", func(t *testing.T) {
		s, kid, a, b, c := hopChain(t)
		bks := s.state(b, kid)
		s.state(c, kid).pfu = true
		allocs := testing.AllocsPerRun(1000, func() {
			bks.pfu = false
			s.send(ActSendQuery, a, b, kid, nil)
			steps(s, 2)
		})
		if allocs != 0 {
			t.Errorf("a query forwarded one hop allocates %.1f, want 0", allocs)
		}
		if s.C.QueryHops != 2*1001 || s.Sched.Pending() != 0 {
			t.Errorf("QueryHops = %d over 1001 runs, %d left in flight", s.C.QueryHops, s.Sched.Pending())
		}
	})

	// c pushes a refresh to b, which applies it and pushes it on to its one
	// interested neighbour a, which applies it.
	t.Run("refresh", func(t *testing.T) {
		s, kid, a, b, c := hopChain(t)
		aks, bks := s.state(a, kid), s.state(b, kid)
		bks.interest.add(a)
		u := refresh(s.Keys[0], 0, 2, 1e9)
		allocs := testing.AllocsPerRun(1000, func() {
			s.send(ActSendUpdate, c, b, kid, &u)
			steps(s, 2)
		})
		if allocs != 0 {
			t.Errorf("a refresh pushed to one interested neighbour allocates %.1f, want 0", allocs)
		}
		if len(aks.entries) != 1 || len(bks.entries) != 1 {
			t.Errorf("the refresh was not cached: a holds %d entries, b %d", len(aks.entries), len(bks.entries))
		}
		if s.C.UpdateHops != 2*1001 || s.Sched.Pending() != 0 {
			t.Errorf("UpdateHops = %d over 1001 runs, %d left in flight", s.C.UpdateHops, s.Sched.Pending())
		}
	})

	// The same refresh fans out from b to three interested neighbours.
	t.Run("refresh-fan-out", func(t *testing.T) {
		s, kid, a, b, c := hopChain(t)
		subs := fanOut(s, kid, a, b, c)
		u := refresh(s.Keys[0], 0, 2, 1e9)
		allocs := testing.AllocsPerRun(1000, func() {
			s.send(ActSendUpdate, c, b, kid, &u)
			steps(s, 4)
		})
		if allocs != 0 {
			t.Errorf("a refresh pushed to three interested neighbours allocates %.1f, want 0", allocs)
		}
		for _, m := range subs {
			if n := len(s.state(m, kid).entries); n != 1 {
				t.Errorf("subscriber %v holds %d entries, want the refresh's 1", m, n)
			}
		}
		if s.C.UpdateHops != 4*1001 || s.Sched.Pending() != 0 {
			t.Errorf("UpdateHops = %d over 1001 runs, %d left in flight", s.C.UpdateHops, s.Sched.Pending())
		}
	})

	// a's clear-bit leaves b with no interest, so b cuts off in turn: its
	// own clear-bit reaches c, which has another subscriber and stops.
	t.Run("clear-bit", func(t *testing.T) {
		s, kid, a, b, c := hopChain(t)
		s.state(b, kid)
		s.state(c, kid).interest.add(a)
		allocs := testing.AllocsPerRun(1000, func() {
			s.send(ActSendClearBit, a, b, kid, nil)
			steps(s, 2)
		})
		if allocs != 0 {
			t.Errorf("a clear-bit allocates %.1f, want 0", allocs)
		}
		if s.C.ClearBitHops != 2*1001 || s.Sched.Pending() != 0 {
			t.Errorf("ClearBitHops = %d over 1001 runs, %d left in flight", s.C.ClearBitHops, s.Sched.Pending())
		}
	})
}

// A handler reads its message where it lies, and its sends take slots —
// the first of them the very slot being handled, freed as the handler
// returns. Nothing of the received update may be lost to that: each of
// b's three subscribers gets its type, entries, expiry and lifetime, one
// level deeper.
func TestFreedSlotKeepsHandledMessage(t *testing.T) {
	s, kid, a, b, c := hopChain(t)
	subs := fanOut(s, kid, a, b, c)
	e := entry(s.Keys[0], 4, 900)
	u := Update{Key: s.Keys[0], Type: Refresh, Entries: []cache.Entry{e}, Replica: 4,
		Depth: 2, Expires: 900, Lifetime: 300}
	s.send(ActSendUpdate, c, b, kid, &u)
	steps(s, 1) // b handles the refresh and fans it out
	if len(s.msgs) != 3 || len(s.freeMsgs) != 0 {
		t.Fatalf("slab holds %d slots, %d free, after b's fan-out; want b's own slot reused and 3 in flight",
			len(s.msgs), len(s.freeMsgs))
	}
	got := map[overlay.NodeID]bool{}
	for i := range s.msgs {
		m := &s.msgs[i]
		fwd := m.u
		if m.kind != ActSendUpdate || m.from != b || fwd.Type != Refresh || fwd.Replica != 4 ||
			fwd.Depth != u.Depth+1 || fwd.Expires != u.Expires || fwd.Lifetime != u.Lifetime ||
			len(fwd.Entries) != 1 || fwd.Entries[0] != e {
			t.Errorf("slot %d carries %+v from %v to %v, want b's forward of %+v at depth %d", i, fwd, m.from, m.to, u, u.Depth+1)
		}
		got[m.to] = true
	}
	for _, m := range subs {
		if !got[m] {
			t.Errorf("subscriber %v has nothing in flight", m)
		}
	}
	steps(s, 3)
	want := s.Sched.Now().Add(u.Lifetime)
	for _, m := range subs {
		if es := s.state(m, kid).entries; len(es) != 1 || es[0].Replica != 4 || es[0].Addr != e.Addr || es[0].Expires != want {
			t.Errorf("subscriber %v cached %v, want replica 4 at %q expiring %v", m, es, e.Addr, want)
		}
	}
}

// BenchmarkMessageHop is the ledger row for one simulated message and
// what it sets off, on the 64-node chain of TestMessageHopAllocatesNothing:
// a query forwarded one hop to coalesce, a refresh b pushes on to three
// interested neighbours (four hops an op), and a clear-bit b passes up.
// Its chord-2^17 case is one refresh to a random node of a built 2¹⁷-node
// Chord run where every node holds the key's state, as in sweep-128k: the
// hop whose message slot, node and key state are each a cache miss.
func BenchmarkMessageHop(b *testing.B) {
	b.Run("query", func(bb *testing.B) {
		s, kid, a, b, c := hopChain(bb)
		bks := s.state(b, kid)
		s.state(c, kid).pfu = true
		bb.ReportAllocs()
		bb.ResetTimer()
		for i := 0; i < bb.N; i++ {
			bks.pfu = false
			s.send(ActSendQuery, a, b, kid, nil)
			steps(s, 2)
		}
	})
	b.Run("refresh", func(bb *testing.B) {
		s, kid, a, b, c := hopChain(bb)
		fanOut(s, kid, a, b, c)
		u := refresh(s.Keys[0], 0, 2, 1e9)
		bb.ReportAllocs()
		bb.ResetTimer()
		for i := 0; i < bb.N; i++ {
			s.send(ActSendUpdate, c, b, kid, &u)
			steps(s, 4)
		}
	})
	b.Run("clear-bit", func(bb *testing.B) {
		s, kid, a, b, c := hopChain(bb)
		s.state(b, kid)
		s.state(c, kid).interest.add(a)
		bb.ReportAllocs()
		bb.ResetTimer()
		for i := 0; i < bb.N; i++ {
			s.send(ActSendClearBit, a, b, kid, nil)
			steps(s, 2)
		}
	})
	b.Run("chord-2^17", func(bb *testing.B) {
		cfg := Defaults()
		cfg.Policy = policy.AlwaysKeep()
		s := NewSimulation(Params{Nodes: 1 << 17, OverlayKind: "chord", NoWorkload: true, Seed: 1, Config: cfg})
		kid := s.env.keys.intern(s.Keys[0])
		for i := range s.Size() {
			s.state(overlay.NodeID(i), kid)
		}
		rng := rand.New(rand.NewSource(1))
		to := make([]overlay.NodeID, 1<<16)
		for i := range to {
			to[i] = overlay.NodeID(rng.Intn(s.Size()))
		}
		u := refresh(s.Keys[0], 0, 2, 1e9)
		bb.ReportAllocs()
		bb.ResetTimer()
		for i := 0; i < bb.N; i++ {
			m := to[i&(len(to)-1)]
			s.send(ActSendUpdate, (m+1)%overlay.NodeID(s.Size()), m, kid, &u)
			steps(s, 1)
		}
	})
}

// A handler's result lives in its owner's buffer: the next handler call on
// the same owner — any node of one simulation — overwrites it, and a
// standalone node (a live peer) is an owner of its own.
func TestHandlerResultValidUntilNextCall(t *testing.T) {
	s := NewSimulation(Params{Nodes: 16, NoWorkload: true, Seed: 1})
	k := overlay.Key("key-0")
	auth := s.Ov.Owner(k)
	a, b := s.Node((auth+1)%16), s.Node((auth+2)%16)
	first := a.HandleQuery(LocalClient, k, 0)
	if len(first) != 1 || first[0].Kind != ActSendQuery {
		t.Fatalf("first miss = %v", kinds(first))
	}
	kept := first[0] // copy to keep
	second := b.HandleQuery(3, "other", 0)
	if &first[0] != &second[0] {
		t.Fatal("two nodes of one simulation built their results in different buffers")
	}
	if first[0].Key != "other" || kept.Key != k {
		t.Fatalf("after the next call: aliased result key %q, copied key %q", first[0].Key, kept.Key)
	}

	clk := &fakeClock{t: 10}
	p, q := newTestNode(1, Defaults(), clk), newTestNode(2, Defaults(), clk)
	pr := p.HandleQuery(LocalClient, "k", 0)
	q.HandleQuery(LocalClient, "j", 0)
	if pr[0].Key != "k" {
		t.Fatal("a standalone node's result was overwritten by another node's handler")
	}
}

// flipOverlay is a two-node overlay whose routing can be changed under a
// router, standing in for a topology change.
type flipOverlay struct{ owner overlay.NodeID }

func (o *flipOverlay) Size() int                                 { return 2 }
func (o *flipOverlay) Owner(overlay.Key) overlay.NodeID          { return o.owner }
func (o *flipOverlay) Neighbors(overlay.NodeID) []overlay.NodeID { return nil }
func (o *flipOverlay) NextHop(overlay.NodeID, overlay.Key) (overlay.NodeID, bool) {
	return o.owner, true
}

func TestNextHopCachedPerTopologyEpoch(t *testing.T) {
	ov := &flipOverlay{owner: 1}
	r := NewOverlayRouter(ov)
	n := NewNode(0, Defaults(), r, func() sim.Time { return 0 })
	ks := n.stateKey("k")
	if got := n.env.nextHop(n.ID(), ks); got != 1 {
		t.Fatalf("first resolution = %v, want 1", got)
	}
	ov.owner = 0 // the topology changes; nobody has said so yet
	if got := n.env.nextHop(n.ID(), ks); got != 1 {
		t.Fatalf("next hop re-resolved within an epoch: %v (not cached?)", got)
	}
	r.Invalidate()
	if got := n.env.nextHop(n.ID(), ks); got != 0 {
		t.Fatalf("after Invalidate next hop = %v, want the new route 0", got)
	}
	r.Dynamic = true
	ov.owner = 1
	if got := n.env.nextHop(n.ID(), ks); got != 1 {
		t.Fatalf("Dynamic router served a cached hop: %v", got)
	}
	// A router that cannot announce topology changes is asked every time.
	m := NewNode(3, Defaults(), lineRouter{}, func() sim.Time { return 0 })
	mk := m.stateKey("k")
	if got := m.env.nextHop(m.ID(), mk); got != 2 || mk.hopEpoch != 0 {
		t.Fatalf("custom router: hop %v, stamp %d", got, mk.hopEpoch)
	}
}

// Membership changes must reach nodes that already cached a next hop:
// after a leave and a join every cached hop agrees with the overlay again
// — by the epoch alone, with the Dynamic bypass switched back off.
func TestChurnReroutesCachedNextHops(t *testing.T) {
	for _, kind := range []string{"can", "kademlia"} {
		t.Run(kind, func(t *testing.T) {
			s := NewSimulation(Params{Nodes: 64, OverlayKind: kind, NoWorkload: true, Seed: 7})
			k := overlay.Key("key-0")
			hops := func() []overlay.NodeID {
				out := make([]overlay.NodeID, s.Size())
				for i := range s.Size() {
					n := s.Node(overlay.NodeID(i))
					out[i] = overlay.NoNode
					if s.NodeAlive(n.ID()) {
						out[i] = n.env.nextHop(n.ID(), n.stateKey(k))
					}
				}
				return out
			}
			before := hops() // caches every node's hop
			// Remove a node others route through, then add one.
			victim := before[(s.Ov.Owner(k)+7)%64]
			if victim == s.Ov.Owner(k) {
				victim = before[(s.Ov.Owner(k)+9)%64]
			}
			leave(t, s, victim)
			join(t, s)
			s.Router.Dynamic = false
			after := hops()
			changed := 0
			for i := range s.Size() {
				n := s.Node(overlay.NodeID(i))
				if !s.NodeAlive(n.ID()) {
					continue
				}
				want, _ := s.Ov.NextHop(n.ID(), k)
				if after[i] != want {
					t.Errorf("node %d still routes %q via %v; the overlay says %v", i, k, after[i], want)
				}
				if i < len(before) && after[i] != before[i] {
					changed++
				}
			}
			if changed == 0 {
				t.Error("churn changed no route: the test exercised nothing")
			}
		})
	}
}

// BenchmarkArrivalHit is the ledger row for a client arrival that hits: a
// PostQueryAt at a random node of a 1024-node CAN whose nodes all hold a
// fresh cached entry — 87 % of a paper sweep's events. Unobserved, the
// run has no observer and builds no event; observed, a Bus with one
// listener gets the hit's two.
func BenchmarkArrivalHit(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "unobserved"
		if observed {
			name = "observed"
		}
		b.Run(name, func(b *testing.B) {
			p := Params{Nodes: 1024, NoWorkload: true, Seed: 1}
			if observed {
				bus := NewBus()
				bus.Attach(ObserverFunc(func(Event) {}))
				p.Observer = bus
			}
			s := NewSimulation(p)
			k := s.Keys[0]
			s.PublishReplica(k, 0, "10.0.0.1", 1e9, Append)
			for i := range s.Size() {
				s.PostQueryAt(overlay.NodeID(i), k)
			}
			for s.Sched.Step() {
			}
			rng := sim.NewRand(1)
			pick := make([]overlay.NodeID, 8192)
			for i := range pick {
				pick[i] = overlay.NodeID(rng.Pick(s.Size()))
			}
			hits := s.C.Hits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.PostQueryAt(pick[i&8191], k)
			}
			if s.C.Hits-hits != uint64(b.N) {
				b.Fatalf("%d of %d arrivals hit", s.C.Hits-hits, b.N)
			}
		})
	}
}
