package cup

import (
	"testing"

	"cup/internal/cache"
	"cup/internal/overlay"
	"cup/internal/policy"
	"cup/internal/sim"
)

// lineRouter routes every key along 0 ← 1 ← 2 ← … (node 0 is authority).
type lineRouter struct{}

func (lineRouter) NextHopTowardOwner(n overlay.NodeID, _ overlay.Key) overlay.NodeID {
	if n == 0 {
		return 0
	}
	return n - 1
}

type fakeClock struct{ t sim.Time }

func (c *fakeClock) now() sim.Time { return c.t }

func newTestNode(id overlay.NodeID, cfg Config, clk *fakeClock) *Node {
	return NewNode(id, cfg, lineRouter{}, clk.now)
}

func entry(k overlay.Key, r int, exp sim.Time) cache.Entry {
	return cache.Entry{Key: k, Replica: r, Addr: "10.0.0.1", Expires: exp}
}

func firstTime(k overlay.Key, depth int, exp sim.Time) Update {
	return Update{Key: k, Type: FirstTime, Entries: []cache.Entry{entry(k, 0, exp)},
		Replica: -1, Depth: depth, Expires: exp}
}

func refresh(k overlay.Key, r, depth int, exp sim.Time) Update {
	return Update{Key: k, Type: Refresh, Entries: []cache.Entry{entry(k, r, exp)},
		Replica: r, Depth: depth, Expires: exp}
}

func kinds(acts []Action) []ActionKind {
	out := make([]ActionKind, len(acts))
	for i, a := range acts {
		out[i] = a.Kind
	}
	return out
}

func TestNewNodeValidation(t *testing.T) {
	clk := &fakeClock{}
	for _, tc := range []func(){
		func() { NewNode(1, Config{}, lineRouter{}, clk.now) },
		func() { NewNode(1, Defaults(), nil, clk.now) },
		func() { NewNode(1, Defaults(), lineRouter{}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewNode did not panic")
				}
			}()
			tc()
		}()
	}
}

func TestAuthorityAnswersFromLocalDirectory(t *testing.T) {
	clk := &fakeClock{t: 10}
	auth := newTestNode(0, Defaults(), clk)
	auth.InstallLocal(entry("k", 0, 100))

	acts := auth.HandleQuery(3, "k", 0)
	if len(acts) != 1 || acts[0].Kind != ActSendUpdate {
		t.Fatalf("authority response = %v", kinds(acts))
	}
	u := acts[0].Update
	if u.Type != FirstTime || len(u.Entries) != 1 || u.Depth != 1 {
		t.Fatalf("bad first-time update: %+v", u)
	}
	if acts[0].To != 3 {
		t.Fatalf("response sent to %v, want 3", acts[0].To)
	}
}

func TestAuthorityAnswersLocalClientDirectly(t *testing.T) {
	clk := &fakeClock{t: 10}
	auth := newTestNode(0, Defaults(), clk)
	auth.InstallLocal(entry("k", 0, 100))
	acts := auth.HandleQuery(LocalClient, "k", 0)
	if len(acts) != 1 || acts[0].Kind != ActDeliverLocal || len(acts[0].Entries) != 1 {
		t.Fatalf("local answer = %+v", acts)
	}
}

func TestQueryCase1FreshCacheHit(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(2, Defaults(), clk)
	// Prime the cache via a first-time update answering a pending query.
	n.HandleQuery(LocalClient, "k", 0)
	n.HandleUpdate(1, firstTime("k", 2, 100))

	acts := n.HandleQuery(3, "k", 0)
	if len(acts) != 1 || acts[0].Kind != ActSendUpdate {
		t.Fatalf("cache hit response = %v", kinds(acts))
	}
	if acts[0].Update.Depth != 3 {
		t.Fatalf("response depth = %d, want 3 (our dist 2 + 1)", acts[0].Update.Depth)
	}
}

func TestQueryCase2SetsPFUAndForwards(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	acts := n.HandleQuery(6, "k", 0)
	if len(acts) != 1 || acts[0].Kind != ActSendQuery || acts[0].To != 4 {
		t.Fatalf("acts = %+v", acts)
	}
	if !n.PendingFirstUpdate("k") {
		t.Fatal("PFU not set")
	}
}

func TestQueryCoalescing(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	first := n.HandleQuery(6, "k", 0)
	if len(first) != 1 {
		t.Fatalf("first query actions = %v", kinds(first))
	}
	// Burst: two more neighbor queries and a local query — all coalesced.
	if acts := n.HandleQuery(7, "k", 0); len(acts) != 0 {
		t.Fatalf("second query not coalesced: %v", kinds(acts))
	}
	if acts := n.HandleQuery(LocalClient, "k", 0); len(acts) != 0 {
		t.Fatalf("local query not coalesced: %v", kinds(acts))
	}
	if n.Popularity("k") != 3 {
		t.Fatalf("popularity = %d, want 3", n.Popularity("k"))
	}

	// The response fans out to both pending children and the local client.
	acts := n.HandleUpdate(4, firstTime("k", 5, 100))
	var sends, delivers int
	for _, a := range acts {
		switch a.Kind {
		case ActSendUpdate:
			sends++
			if a.To != 6 && a.To != 7 {
				t.Fatalf("response to unexpected neighbor %v", a.To)
			}
		case ActDeliverLocal:
			delivers++
		}
	}
	if sends != 2 || delivers != 1 {
		t.Fatalf("sends=%d delivers=%d, want 2 and 1", sends, delivers)
	}
	if n.PendingFirstUpdate("k") {
		t.Fatal("PFU still set after response")
	}
}

func TestQueryCase3ExpiredEntriesRequery(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(LocalClient, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 50))
	clk.t = 60 // entries now expired
	acts := n.HandleQuery(LocalClient, "k", 0)
	if len(acts) != 1 || acts[0].Kind != ActSendQuery {
		t.Fatalf("expired-entry query should re-push: %v", kinds(acts))
	}
	if !n.EverHeld("k") {
		t.Fatal("EverHeld lost")
	}
}

func TestStandardModeDoesNotRegisterInterest(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Standard(), clk)
	n.HandleQuery(6, "k", 0)
	if got := n.InterestedNeighbors("k"); len(got) != 0 {
		t.Fatalf("standard caching registered interest: %v", got)
	}
}

func TestCUPModeRegistersInterestOnEveryCase(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(6, "k", 0) // case 2
	n.HandleUpdate(4, firstTime("k", 5, 100))
	n.HandleQuery(7, "k", 0) // case 1 (fresh hit)
	got := n.InterestedNeighbors("k")
	if len(got) != 2 || got[0] != 6 || got[1] != 7 {
		t.Fatalf("interest = %v, want [6 7]", got)
	}
}

func TestUpdatePushedOnlyToInterested(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(6, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))

	acts := n.HandleUpdate(4, refresh("k", 0, 5, 200))
	if len(acts) != 1 || acts[0].Kind != ActSendUpdate || acts[0].To != 6 {
		t.Fatalf("refresh propagation = %+v", acts)
	}
	if acts[0].Update.Depth != 6 {
		t.Fatalf("forwarded depth = %d, want 6", acts[0].Update.Depth)
	}
	// A refresh for a key no neighbor cares about and with no queries is
	// cut off (second-chance gives one grace update).
	n2 := newTestNode(5, Defaults(), clk)
	n2.HandleQuery(LocalClient, "k", 0)
	n2.HandleUpdate(4, firstTime("k", 5, 100))
	if acts := n2.HandleUpdate(4, refresh("k", 0, 5, 200)); len(acts) != 0 {
		t.Fatalf("first idle refresh should be tolerated: %v", kinds(acts))
	}
	acts = n2.HandleUpdate(4, refresh("k", 0, 5, 300))
	if len(acts) != 1 || acts[0].Kind != ActSendClearBit || acts[0].To != 4 {
		t.Fatalf("second idle refresh should clear-bit: %+v", acts)
	}
}

func TestExpiredUpdateDropped(t *testing.T) {
	clk := &fakeClock{t: 100}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(6, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 200))
	// Update that expired in flight: not applied, not pushed.
	acts := n.HandleUpdate(4, refresh("k", 0, 5, 50))
	if len(acts) != 0 {
		t.Fatalf("expired update produced actions: %v", kinds(acts))
	}
	if c := n.Counters(); c.ExpiredUpdates != 1 {
		t.Fatalf("ExpiredUpdates = %d, want 1", c.ExpiredUpdates)
	}
}

func TestExpiredFirstTimeUpdateUnblocksPending(t *testing.T) {
	clk := &fakeClock{t: 100}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(LocalClient, "k", 0)
	acts := n.HandleUpdate(4, firstTime("k", 5, 50)) // already expired
	if n.PendingFirstUpdate("k") {
		t.Fatal("PFU stuck after expired response")
	}
	found := false
	for _, a := range acts {
		if a.Kind == ActDeliverLocal {
			found = true
		}
	}
	if !found {
		t.Fatalf("local client never unblocked: %v", kinds(acts))
	}
}

func TestDeleteAppliedEvenWhenExpired(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(LocalClient, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	del := Update{Key: "k", Type: Delete, Replica: 0, Depth: 5, Expires: 5}
	n.HandleUpdate(4, del)
	if len(n.Cached("k")) != 0 {
		t.Fatal("delete not applied")
	}
}

func TestClearBitClearsInterest(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(6, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	if len(n.InterestedNeighbors("k")) != 1 {
		t.Fatal("precondition: neighbor 6 interested")
	}
	// Node 5 has popularity 0 (reset by update) and no other interest, so
	// the clear-bit propagates upstream to node 4.
	acts := n.HandleClearBit(6, "k")
	if len(n.InterestedNeighbors("k")) != 0 {
		t.Fatal("interest bit not cleared")
	}
	if len(acts) != 1 || acts[0].Kind != ActSendClearBit || acts[0].To != 4 {
		t.Fatalf("clear-bit propagation = %+v", acts)
	}
}

func TestClearBitNotPropagatedWhenPopular(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(6, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	n.HandleQuery(LocalClient, "k", 0) // hit, but bumps popularity
	if acts := n.HandleClearBit(6, "k"); len(acts) != 0 {
		t.Fatalf("popular key clear-bit propagated: %v", kinds(acts))
	}
}

func TestClearBitNotPropagatedWithOtherInterest(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(6, "k", 0)
	n.HandleQuery(7, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	if acts := n.HandleClearBit(6, "k"); len(acts) != 0 {
		t.Fatalf("clear-bit propagated despite neighbor 7: %v", kinds(acts))
	}
}

func TestClearBitAtAuthorityStops(t *testing.T) {
	clk := &fakeClock{t: 10}
	auth := newTestNode(0, Defaults(), clk)
	auth.InstallLocal(entry("k", 0, 100))
	auth.HandleQuery(1, "k", 0)
	if acts := auth.HandleClearBit(1, "k"); len(acts) != 0 {
		t.Fatalf("authority propagated clear-bit: %v", kinds(acts))
	}
}

func TestPushLevelBlocksDeepPropagation(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults()
	cfg.Policy = policy.AlwaysKeep()
	cfg.PushLevel = 5
	n := newTestNode(9, cfg, clk)
	n.HandleQuery(10, "k", 0)
	n.HandleUpdate(8, firstTime("k", 5, 100)) // we are at depth 5
	// Forwarding would put the child at depth 6 > push level 5.
	if acts := n.HandleUpdate(8, refresh("k", 0, 5, 200)); len(acts) != 0 {
		t.Fatalf("push level violated: %v", kinds(acts))
	}
	// At depth 4 the child lands exactly at the level: allowed.
	n2 := newTestNode(9, cfg, clk)
	n2.HandleQuery(10, "k", 0)
	n2.HandleUpdate(8, firstTime("k", 4, 100))
	if acts := n2.HandleUpdate(8, refresh("k", 0, 4, 200)); len(acts) != 1 {
		t.Fatalf("push at level boundary blocked: %v", kinds(acts))
	}
}

func TestCapacityZeroSuppressesProactivePushes(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults()
	cfg.Policy = policy.AlwaysKeep()
	n := newTestNode(5, cfg, clk)
	n.HandleQuery(6, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	n.SetCapacity(0)
	for i := 0; i < 5; i++ {
		if acts := n.HandleUpdate(4, refresh("k", 0, 5, sim.Time(200+10*i))); len(acts) != 0 {
			t.Fatalf("zero-capacity node pushed: %v", kinds(acts))
		}
	}
	if c := n.Counters(); c.UpdatesDropped != 5 {
		t.Fatalf("UpdatesDropped = %d, want 5", c.UpdatesDropped)
	}
}

func TestCapacityFractionThinsDeterministically(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults()
	cfg.Policy = policy.AlwaysKeep()
	n := newTestNode(5, cfg, clk)
	n.HandleQuery(6, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	n.SetCapacity(0.25)
	pushed := 0
	for i := 0; i < 100; i++ {
		if acts := n.HandleUpdate(4, refresh("k", 0, 5, sim.Time(200+10*i))); len(acts) > 0 {
			pushed++
		}
	}
	if pushed != 25 {
		t.Fatalf("pushed %d of 100 at c=0.25, want exactly 25", pushed)
	}
}

func TestCapacityRestores(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults()
	cfg.Policy = policy.AlwaysKeep()
	n := newTestNode(5, cfg, clk)
	n.HandleQuery(6, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	n.SetCapacity(0)
	n.HandleUpdate(4, refresh("k", 0, 5, 200))
	n.SetCapacity(-1)
	if acts := n.HandleUpdate(4, refresh("k", 0, 5, 300)); len(acts) != 1 {
		t.Fatalf("restored capacity still suppressed: %v", kinds(acts))
	}
}

func TestResponsesExemptFromCapacity(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.SetCapacity(0)
	n.HandleQuery(6, "k", 0) // pending child
	acts := n.HandleUpdate(4, firstTime("k", 5, 100))
	found := false
	for _, a := range acts {
		if a.Kind == ActSendUpdate && a.To == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("zero-capacity node failed to answer pending child: %v", kinds(acts))
	}
}

func TestReplicaIndependentCutoffIgnoresOtherReplicas(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults() // replica-independent on, second-chance
	n := newTestNode(5, cfg, clk)
	n.HandleQuery(LocalClient, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 1000))
	// Watch replica is designated by the first proactive update (replica 0).
	if acts := n.HandleUpdate(4, refresh("k", 0, 5, 1100)); len(acts) != 0 {
		t.Fatalf("unexpected actions: %v", kinds(acts))
	}
	// Updates for replicas 1..9 must not trigger the cut-off decision.
	for r := 1; r < 10; r++ {
		if acts := n.HandleUpdate(4, refresh("k", r, 5, sim.Time(1100+r))); len(acts) != 0 {
			t.Fatalf("replica %d triggered cut-off: %v", r, kinds(acts))
		}
	}
	// The watched replica's second idle update triggers the cut.
	acts := n.HandleUpdate(4, refresh("k", 0, 5, 1200))
	if len(acts) != 1 || acts[0].Kind != ActSendClearBit {
		t.Fatalf("watched replica did not trigger cut: %v", kinds(acts))
	}
}

func TestNaiveCutoffTriggersOnEveryReplica(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults()
	cfg.ReplicaIndependentCutoff = false
	n := newTestNode(5, cfg, clk)
	n.HandleQuery(LocalClient, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 1000))
	// Two idle updates from different replicas cut under the naive scheme.
	n.HandleUpdate(4, refresh("k", 3, 5, 1100))
	acts := n.HandleUpdate(4, refresh("k", 7, 5, 1200))
	if len(acts) != 1 || acts[0].Kind != ActSendClearBit {
		t.Fatalf("naive cut-off did not trigger: %v", kinds(acts))
	}
}

func TestJustifiedAccounting(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults()
	cfg.Policy = policy.AlwaysKeep()
	n := newTestNode(5, cfg, clk)
	n.HandleQuery(LocalClient, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	// Proactive refresh applied; a query before its expiry justifies it.
	n.HandleUpdate(4, refresh("k", 0, 5, 200))
	clk.t = 50
	n.HandleQuery(LocalClient, "k", 0)
	if c := n.Counters(); c.JustifiedUpdates != 1 || c.UnjustifiedUpdates != 0 {
		t.Fatalf("counters = %+v, want 1 justified", c)
	}
	// A refresh still inside its interval when the run ends is censored:
	// neither justified nor unjustified.
	n.HandleUpdate(4, refresh("k", 0, 5, 300))
	if c := n.Counters(); c.JustifiedUpdates != 1 || c.UnjustifiedUpdates != 0 {
		t.Fatalf("counters = %+v, want the pending refresh counted neither way", c)
	}
}

func TestPatchNeighborsDropsVanished(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(6, "k", 0)
	n.HandleQuery(7, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 100))
	n.PatchNeighbors([]overlay.NodeID{4, 7})
	got := n.InterestedNeighbors("k")
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("interest after patch = %v, want [7]", got)
	}
}

func TestFlushExpired(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	n.HandleQuery(LocalClient, "k", 0)
	n.HandleUpdate(4, firstTime("k", 5, 50))
	clk.t = 60
	if dropped := n.FlushExpired(); dropped != 1 {
		t.Fatalf("FlushExpired = %d, want 1", dropped)
	}
}

func TestOriginateUpdateRequiresAuthority(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	defer func() {
		if recover() == nil {
			t.Error("originateUpdate at non-authority did not panic")
		}
	}()
	n.originateUpdate(Update{Key: "k", Type: Refresh})
}

func TestOriginateUpdatePushesToInterested(t *testing.T) {
	clk := &fakeClock{t: 10}
	auth := newTestNode(0, Defaults(), clk)
	auth.InstallLocal(entry("k", 0, 100))
	auth.HandleQuery(1, "k", 0) // neighbor 1 now interested
	acts := auth.originateUpdate(refresh("k", 0, 0, 200))
	if len(acts) != 1 || acts[0].Kind != ActSendUpdate || acts[0].To != 1 {
		t.Fatalf("originate = %+v", acts)
	}
	if acts[0].Update.Depth != 1 {
		t.Fatalf("origin depth = %d, want 1", acts[0].Update.Depth)
	}
}

func TestStandardModeOriginatesNothing(t *testing.T) {
	clk := &fakeClock{t: 10}
	auth := newTestNode(0, Standard(), clk)
	auth.InstallLocal(entry("k", 0, 100))
	auth.HandleQuery(1, "k", 0)
	if acts := auth.originateUpdate(refresh("k", 0, 0, 200)); len(acts) != 0 {
		t.Fatalf("standard caching originated updates: %v", kinds(acts))
	}
}

func TestDistanceTracking(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	if n.Distance("k") != -1 {
		t.Fatalf("unknown distance = %d, want -1", n.Distance("k"))
	}
	n.HandleQuery(LocalClient, "k", 0)
	n.HandleUpdate(4, firstTime("k", 7, 100))
	if n.Distance("k") != 7 {
		t.Fatalf("distance = %d, want 7", n.Distance("k"))
	}
	auth := newTestNode(0, Defaults(), clk)
	if auth.Distance("k") != 0 {
		t.Fatalf("authority distance = %d, want 0", auth.Distance("k"))
	}
}

func TestUpdateTypeStringsAndPriorities(t *testing.T) {
	order := []UpdateType{FirstTime, Delete, Refresh, Append}
	for i := 1; i < len(order); i++ {
		if order[i].Priority() <= order[i-1].Priority() {
			t.Fatalf("priority order broken at %v", order[i])
		}
	}
	for _, u := range order {
		if u.String() == "" {
			t.Fatal("empty String()")
		}
	}
	if UpdateType(99).String() != "update(99)" {
		t.Fatalf("unknown type String = %q", UpdateType(99).String())
	}
}
