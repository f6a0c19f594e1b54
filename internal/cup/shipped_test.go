package cup

import (
	"context"
	"testing"

	"cup/internal/cache"
	"cup/internal/policy"
)

// A node edits its cached entry set in place until a view of it ships —
// in a response, to a waiting client — and copies it once after. These
// tests hold the two halves: a view that has left the node never changes
// under its holder, and a refresh reaching a set nobody holds allocates
// nothing.

func TestShippedViewSurvivesRefresh(t *testing.T) {
	// X (node 2) ships a first-time response carrying its set to Y (node
	// 3); while it is in flight, a refresh with a later expiry reaches X.
	// Y must cache what X sent, not what X holds now.
	t.Run("response", func(t *testing.T) {
		clk := &fakeClock{t: 10}
		x, y := newTestNode(2, Defaults(), clk), newTestNode(3, Defaults(), clk)
		warm(x, "k")
		sent := x.Cached("k")[0].Expires
		y.HandleQuery(LocalClient, "k", 0)
		acts := x.HandleQuery(y.ID(), "k", 0)
		if len(acts) != 1 || acts[0].Kind != ActSendUpdate {
			t.Fatalf("X did not answer Y from its cache: %v", kinds(acts))
		}
		inFlight := *acts[0].Update // what a transport puts in flight
		x.HandleUpdate(1, refresh("k", 0, 1, sent+500))
		if got := x.Cached("k")[0].Expires; got != sent+500 {
			t.Fatalf("X did not apply the refresh: expiry %v", got)
		}
		y.HandleUpdate(x.ID(), inFlight)
		if got := y.Cached("k"); len(got) != 1 || got[0].Expires != sent {
			t.Fatalf("Y cached %v, want the expiry X sent (%v)", got, sent)
		}
	})
	// A local hit's entries are the node's own set until the transport
	// marks them shipped as it hands them to a client (the live peer).
	t.Run("local answer", func(t *testing.T) {
		clk := &fakeClock{t: 10}
		x := newTestNode(2, Defaults(), clk)
		warm(x, "k")
		acts := x.HandleQuery(LocalClient, "k", 0)
		if len(acts) != 1 || acts[0].Kind != ActDeliverLocal {
			t.Fatalf("warm local query did not hit: %v", kinds(acts))
		}
		got := acts[0].Entries
		kept := got[0]
		x.MarkShipped("k")
		x.HandleUpdate(1, refresh("k", 0, 1, kept.Expires+500))
		if got[0] != kept {
			t.Fatalf("the refresh rewrote a shipped local answer: %v, was %v", got[0], kept)
		}
	})
	// A simulated Lookup hands a hit's entries to its caller; a refresh
	// reaching that node afterwards must not rewrite them.
	t.Run("lookup", func(t *testing.T) {
		ctx := context.Background()
		s := NewSimulation(Params{Nodes: 16, NoWorkload: true, Seed: 1})
		k := s.Keys[0]
		s.PublishReplica(k, 0, "10.0.0.1", 100, Append)
		at := (s.Ov.Owner(k) + 1) % 16
		if _, err := s.Lookup(ctx, at, k); err != nil { // first-time miss
			t.Fatal(err)
		}
		got, err := s.Lookup(ctx, at, k) // a hit
		if err != nil || len(got) != 1 {
			t.Fatalf("hit = %v, %v", got, err)
		}
		kept := got[0]
		s.PublishReplica(k, 0, "10.0.0.1", 500, Refresh)
		if err := s.Settle(ctx); err != nil {
			t.Fatal(err)
		}
		if c := s.Node(at).Cached(k); len(c) != 1 || c[0].Expires == kept.Expires {
			t.Fatalf("the refresh never reached node %v: %v", at, c)
		}
		if got[0] != kept {
			t.Fatalf("the refresh rewrote a Lookup's answer: %v, was %v", got[0], kept)
		}
	})
}

func TestRefreshOfUnsharedSetAllocatesNothing(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults()
	cfg.Policy = policy.AlwaysKeep()
	n := newTestNode(5, cfg, clk)
	es := make([]cache.Entry, 100)
	for i := range es {
		es[i] = entry("k", i, 1e9)
	}
	// A proactive first-time push: the node caches the set and ships none
	// of it.
	n.HandleUpdate(4, Update{Key: "k", Type: FirstTime, Entries: es, Replica: -1, Depth: 1, Expires: 1e9})
	u := refresh("k", 50, 1, 1e9)
	allocs := testing.AllocsPerRun(1000, func() {
		u.Entries[0].Expires++
		n.HandleUpdate(4, u)
	})
	exp := u.Entries[0].Expires
	if allocs != 0 {
		t.Errorf("a refresh of an unshared 100-entry set allocates %.1f, want 0", allocs)
	}
	if got := n.Cached("k"); len(got) != 100 || got[50].Expires != exp {
		t.Fatalf("the refreshes were not applied: %d entries, replica 50 expires %v", len(got), got[50].Expires)
	}
}
