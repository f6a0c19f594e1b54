package live

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
)

func TestLiveJoinSpawnsWorkingPeer(t *testing.T) {
	bothTransports(t, Config{Nodes: 8}, func(t *testing.T, n *Network) {
		ctx := ctxShort(t)
		id, err := n.Join(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int(id), 8; got != want {
			t.Fatalf("joined id = %d, want %d", got, want)
		}
		if n.Size() != 9 {
			t.Fatalf("Size = %d after join, want 9", n.Size())
		}
		if !n.IsAlive(id) {
			t.Fatal("joined node not alive")
		}
		add(t, n, "post-join", 0, "10.0.0.1", time.Hour)
		entries, err := n.Lookup(ctx, id, "post-join")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("lookup at joined node: %d entries, want 1", len(entries))
		}
	})
}

func TestLiveJoinHandsOverOwnedEntries(t *testing.T) {
	bothTransports(t, Config{Nodes: 6}, func(t *testing.T, n *Network) {
		ctx := ctxShort(t)
		keys := make([]overlay.Key, 32)
		for i := range keys {
			keys[i] = overlay.Key("handover-" + string(rune('a'+i)))
			add(t, n, keys[i], 0, "10.0.0.1", time.Hour)
		}
		// Join repeatedly until some key's authority moves to a new node,
		// then verify the index entry moved with it.
		for i := 0; i < 10; i++ {
			id, err := n.Join(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if n.Authority(k) != id {
					continue
				}
				var found bool
				n.Inspect(id, func(node *cup.Node) {
					_, found = node.LocalDirectory().Get(k, 0)
				})
				if !found {
					t.Fatalf("authority of %q moved to joiner %v without its index entry", k, id)
				}
				return
			}
		}
		t.Skip("no key ownership moved across 10 joins (topology-dependent)")
	})
}

func TestLiveLeaveRetiresPeerAndHandsOver(t *testing.T) {
	bothTransports(t, Config{Nodes: 8}, func(t *testing.T, n *Network) {
		ctx := ctxShort(t)
		key := overlay.Key("survivor")
		add(t, n, key, 0, "10.0.0.9", time.Hour)
		victim := n.Authority(key)
		if err := n.Leave(ctx, victim); err != nil {
			t.Fatal(err)
		}
		if n.IsAlive(victim) {
			t.Fatal("victim still alive after Leave")
		}
		heir := n.Authority(key)
		if heir == victim {
			t.Fatalf("authority of %q still the departed node", key)
		}
		var found bool
		n.Inspect(heir, func(node *cup.Node) {
			_, found = node.LocalDirectory().Get(key, 0)
		})
		if !found {
			t.Fatalf("index entry for %q did not move to new authority %v", key, heir)
		}
		// The network still answers: a lookup from a survivor finds the entry.
		var at overlay.NodeID
		for i := 0; i < n.Size(); i++ {
			if id := overlay.NodeID(i); n.IsAlive(id) && id != heir {
				at = id
				break
			}
		}
		entries, err := n.Lookup(ctx, at, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("post-leave lookup: %d entries, want 1", len(entries))
		}
		// Lookups at the departed node fail fast with a descriptive error.
		if _, err := n.Lookup(ctx, victim, key); err == nil {
			t.Fatal("lookup at departed node succeeded")
		}
	})
}

func TestLiveLeaveErrors(t *testing.T) {
	bothTransports(t, Config{Nodes: 4}, func(t *testing.T, n *Network) {
		ctx := ctxShort(t)
		if err := n.Leave(ctx, 99); err == nil {
			t.Fatal("leave of unknown node succeeded")
		}
		if err := n.Leave(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if err := n.Leave(ctx, 2); err == nil {
			t.Fatal("double leave succeeded")
		}
	})
}

func TestLiveChurnStaticOverlayErrors(t *testing.T) {
	bothTransports(t, Config{Nodes: 8, Overlay: "chord"}, func(t *testing.T, n *Network) {
		ctx := ctxShort(t)
		if _, err := n.Join(ctx); err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Fatalf("Join on chord: err = %v, want unsupported-churn error", err)
		}
		if err := n.Leave(ctx, 3); err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Fatalf("Leave on chord: err = %v, want unsupported-churn error", err)
		}
	})
}

// TestJoinAfterCloseOpensNothing: a Join that loses the race with Close
// is refused — no listener bound, no unit of the port budget kept, no
// goroutine left behind.
func TestJoinAfterCloseOpensNothing(t *testing.T) {
	ports := PortsInUse()
	bothTransports(t, Config{Nodes: 8}, func(t *testing.T, n *Network) {
		n.Close()
		goroutines := runtime.NumGoroutine()
		for i := 0; i < 2; i++ {
			if id, err := n.Join(ctxShort(t)); !errors.Is(err, ErrClosed) {
				t.Fatalf("Join on a closed network = %v, %v, want ErrClosed", id, err)
			}
		}
		if n.Size() != 8 {
			t.Fatalf("closed network grew to %d slots", n.Size())
		}
		if got := PortsInUse(); got != ports {
			t.Fatalf("PortsInUse = %d after close and join, want baseline %d", got, ports)
		}
		// A goroutine that has called wg.Done may still be on its way out.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the refused joins, %d before", runtime.NumGoroutine(), goroutines)
			}
		}
	})
}
