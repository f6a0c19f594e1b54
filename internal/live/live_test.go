package live

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
)

func newTestNet(t *testing.T, nodes int) *Network {
	t.Helper()
	n := NewNetwork(Config{Nodes: nodes, HopDelay: 200 * time.Microsecond, Seed: 5})
	t.Cleanup(n.Close)
	return n
}

// bothTransports runs fn against a goroutine network and a TCP network
// built from cfg: 16 nodes, seed 5 and (where hops are injected) a 200µs
// hop unless cfg says otherwise.
func bothTransports(t *testing.T, cfg Config, fn func(t *testing.T, n *Network)) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 5
	}
	if cfg.HopDelay == 0 {
		cfg.HopDelay = 200 * time.Microsecond
	}
	t.Run("chan", func(t *testing.T) {
		n := NewNetwork(cfg)
		defer n.Close()
		fn(t, n)
	})
	t.Run("tcp", func(t *testing.T) {
		n, err := NewTCPNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		fn(t, n)
	})
}

// add publishes a replica and waits for the authority to register it.
func add(t *testing.T, n *Network, key overlay.Key, replica int, addr string, lifetime time.Duration) {
	t.Helper()
	if err := n.AddReplicaCtx(context.Background(), key, replica, addr, lifetime); err != nil {
		t.Fatal(err)
	}
}

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestLookupFindsReplica(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		add(t, n, "movie", 0, "10.0.0.1", time.Hour)
		entries, err := n.Lookup(ctxShort(t), 3, "movie")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Addr != "10.0.0.1" {
			t.Fatalf("entries = %+v", entries)
		}
	})
}

func TestLookupMissingKeyReturnsEmpty(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		entries, err := n.Lookup(ctxShort(t), 2, "ghost")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("entries = %+v, want none", entries)
		}
	})
}

func TestLookupAtAuthorityIsLocal(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		add(t, n, "k", 0, "10.0.0.1", time.Hour)
		auth := n.Authority("k")
		entries, err := n.Lookup(ctxShort(t), auth, "k")
		if err != nil || len(entries) != 1 {
			t.Fatalf("authority lookup = %v, %v", entries, err)
		}
	})
}

func TestSecondLookupHitsCache(t *testing.T) {
	bothTransports(t, Config{Nodes: 32}, func(t *testing.T, n *Network) {
		add(t, n, "k", 0, "10.0.0.1", time.Hour)
		var nid overlay.NodeID = 7
		if n.Authority("k") == nid {
			nid = 8
		}
		if _, err := n.Lookup(ctxShort(t), nid, "k"); err != nil {
			t.Fatal(err)
		}
		before := n.Stats().QueryMsgs
		if _, err := n.Lookup(ctxShort(t), nid, "k"); err != nil {
			t.Fatal(err)
		}
		if after := n.Stats().QueryMsgs; after != before {
			t.Fatalf("second lookup sent %d query messages", after-before)
		}
	})
}

func TestConcurrentLookups(t *testing.T) {
	bothTransports(t, Config{Nodes: 64}, func(t *testing.T, n *Network) {
		for r := 0; r < 3; r++ {
			add(t, n, "hot", r, fmt.Sprintf("10.0.0.%d", r), time.Hour)
		}
		ctx := ctxShort(t)
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				entries, err := n.Lookup(ctx, overlay.NodeID(i), "hot")
				if err != nil {
					errs <- err
					return
				}
				if len(entries) != 3 {
					errs <- fmt.Errorf("node %d got %d entries, want 3", i, len(entries))
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

func TestDeleteStopsServingReplica(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		add(t, n, "k", 0, "10.0.0.1", time.Hour)
		add(t, n, "k", 1, "10.0.0.2", time.Hour)
		if _, err := n.Lookup(ctxShort(t), 2, "k"); err != nil {
			t.Fatal(err)
		}
		if err := n.RemoveReplicaCtx(ctxShort(t), "k", 0); err != nil {
			t.Fatal(err)
		}
		// The delete must reach the authority and interested caches.
		deadline := time.Now().Add(3 * time.Second)
		for {
			entries, err := n.Lookup(ctxShort(t), n.Authority("k"), "k")
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) == 1 && entries[0].Replica == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("delete never applied; entries = %+v", entries)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// deleteTap is the goroutine link, recording every Delete it carries.
type deleteTap struct {
	chanLink
	mu      sync.Mutex
	deletes []cup.Update
}

func (l *deleteTap) send(from *peer, to overlay.NodeID, m message) {
	if m.kind == msgUpdate && m.update.Type == cup.Delete {
		l.mu.Lock()
		l.deletes = append(l.deletes, m.update)
		l.mu.Unlock()
	}
	l.chanLink.send(from, to, m)
}

// A Delete stays justified for one replica lifetime, as the simulator's
// RemoveReplica has it: the authority stamps it to expire
// cup.DefaultLifetime after it originates.
func TestDeleteExpiresOneLifetimeOut(t *testing.T) {
	tap := &deleteTap{}
	n, err := boot(Config{Nodes: 16, HopDelay: 200 * time.Microsecond, Seed: 5}.withDefaults(), tap)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	add(t, n, "k", 0, "10.0.0.1", time.Hour)
	if _, err := n.Lookup(ctxShort(t), entryFor(n, "k"), "k"); err != nil {
		t.Fatal(err)
	}
	before := n.Now()
	if err := n.RemoveReplicaCtx(ctxShort(t), "k", 0); err != nil {
		t.Fatal(err)
	}
	after := n.Now()
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.deletes) == 0 {
		t.Fatal("the authority pushed no Delete to the peer that asked for k")
	}
	if exp := tap.deletes[0].Expires; exp < before.Add(cup.DefaultLifetime) || exp > after.Add(cup.DefaultLifetime) {
		t.Fatalf("Delete expires at %v, want one lifetime (%v s) after its origin in [%v, %v]",
			exp, cup.DefaultLifetime, before, after)
	}
}

func TestRefreshPropagatesToInterestedPeer(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		add(t, n, "k", 0, "10.0.0.1", 500*time.Millisecond)
		var nid overlay.NodeID = 4
		if n.Authority("k") == nid {
			nid = 5
		}
		if _, err := n.Lookup(ctxShort(t), nid, "k"); err != nil {
			t.Fatal(err)
		}
		// Refresh before expiry; the interested peer's cache must be extended
		// without it issuing another query.
		if err := n.RefreshCtx(ctxShort(t), "k", 0, "10.0.0.1", time.Hour); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for {
			var fresh bool
			n.Inspect(nid, func(node *cup.Node) { fresh = node.HasFreshAnswer("k") })
			if fresh {
				queriesBefore := n.Stats().QueryMsgs
				if _, err := n.Lookup(ctxShort(t), nid, "k"); err != nil {
					t.Fatal(err)
				}
				if n.Stats().QueryMsgs != queriesBefore {
					t.Fatal("refreshed peer still issued a query")
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("refresh never reached the interested peer")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestStatsCount(t *testing.T) {
	bothTransports(t, Config{Nodes: 32}, func(t *testing.T, n *Network) {
		add(t, n, "k", 0, "10.0.0.1", time.Hour)
		for i := 0; i < 5; i++ {
			if _, err := n.Lookup(ctxShort(t), overlay.NodeID(i), "k"); err != nil {
				t.Fatal(err)
			}
		}
		st := n.Stats()
		if st.QueryMsgs == 0 || st.UpdateMsgs == 0 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestSetCapacityZeroStillAnswersQueries(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		add(t, n, "k", 0, "10.0.0.1", time.Hour)
		for i := 0; i < 16; i++ {
			if err := n.SetCapacity(ctxShort(t), overlay.NodeID(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		entries, err := n.Lookup(ctxShort(t), 3, "k")
		if err != nil || len(entries) != 1 {
			t.Fatalf("zero-capacity lookup = %v, %v", entries, err)
		}
	})
}

// TestLookupContextCancellation: a lookup whose answer never comes — the
// authority is busy for as long as the test likes — returns when its
// context does.
func TestLookupContextCancellation(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		add(t, n, "k", 0, "10.0.0.1", time.Hour)
		release := make(chan struct{})
		defer close(release)
		blocked := make(chan struct{})
		go n.Inspect(n.Authority("k"), func(*cup.Node) { close(blocked); <-release })
		<-blocked
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := n.Lookup(ctx, entryFor(n, "k"), "k"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("lookup with no answer coming returned %v", err)
		}
	})
}

func TestCloseIsIdempotentAndStopsLoops(t *testing.T) {
	n := NewNetwork(Config{Nodes: 8, Seed: 5})
	n.Close()
	n.Close()
}

// TestCloseStrandsNothing closes a network in the middle of a lookup storm
// on one-slot mailboxes, then fills every mailbox: nothing may stay
// blocked on a full inbox — not a hop in flight, not a lookup — so every
// goroutine the network and its callers started is gone within 2 s, and a
// lookup posted to a full mailbox after Close fails fast.
func TestCloseStrandsNothing(t *testing.T) {
	// Inside fn, the subtest's goroutine runs while the test's waits.
	base := runtime.NumGoroutine() + 1
	bothTransports(t, Config{InboxDepth: 1}, func(t *testing.T, n *Network) {
		ctx, cancel := context.WithCancel(context.Background())
		for i := 0; i < 64; i++ {
			go func(id overlay.NodeID, key overlay.Key) {
				for ctx.Err() == nil {
					_, _ = n.Lookup(ctx, id, key)
				}
			}(overlay.NodeID(i%n.Size()), overlay.Key(fmt.Sprintf("key-%d", i)))
		}
		time.Sleep(20 * time.Millisecond)
		n.Close()
		cancel()
		for _, p := range *n.peers.Load() {
			for full := false; !full; {
				select {
				case p.inbox <- message{}:
				default:
					full = true
				}
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := n.Lookup(context.Background(), 0, "after-close")
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Lookup after Close = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Lookup after Close still blocked on a full mailbox after 2 s")
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines 2 s after Close, %d before boot", runtime.NumGoroutine(), base)
			}
		}
	})
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nodes=0 did not panic")
		}
	}()
	NewNetwork(Config{Nodes: 0})
}

func TestInspectSeesProtocolState(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		add(t, n, "k", 0, "10.0.0.1", time.Hour)
		auth := n.Authority("k")
		var entries int
		n.Inspect(auth, func(node *cup.Node) { entries = node.LocalDirectory().Len() })
		if entries != 1 {
			t.Fatalf("authority local directory = %d entries, want 1", entries)
		}
	})
}

// Index entries cross peers by reference: a response carries a view of the
// sender's immutable entry set, the receiver answers its own clients with
// a view of its copy, and Lookup hands that view to the caller's
// goroutine. Under -race this test reads every entry it is given while
// the authority's directory is rewritten underneath — appends, refreshes
// and deletes pushed down the tree — so any write into a published set
// shows up as a race between a peer goroutine and a caller.
func TestSharedEntryViewsSurviveConcurrentWrites(t *testing.T) {
	bothTransports(t, Config{Nodes: 32}, func(t *testing.T, n *Network) {
		for r := 0; r < 4; r++ {
			add(t, n, "hot", r, fmt.Sprintf("10.0.0.%d", r), time.Hour)
		}
		ctx := ctxShort(t)
		stop := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch r := i % 4; i % 3 {
				case 0:
					_ = n.RefreshCtx(ctx, "hot", r, fmt.Sprintf("10.0.1.%d", i%250), time.Hour)
				case 1:
					_ = n.RemoveReplicaCtx(ctx, "hot", r)
				default:
					_ = n.AddReplicaCtx(ctx, "hot", r, fmt.Sprintf("10.0.2.%d", i%250), time.Hour)
				}
			}
		}()
		var readers sync.WaitGroup
		errs := make(chan error, 32)
		for i := 0; i < 32; i++ {
			readers.Add(1)
			go func(id overlay.NodeID) {
				defer readers.Done()
				for round := 0; round < 40; round++ {
					entries, err := n.Lookup(ctx, id, "hot")
					if err != nil {
						errs <- err
						return
					}
					for j, e := range entries {
						if e.Key != "hot" || e.Addr == "" || (j > 0 && entries[j-1].Replica >= e.Replica) {
							errs <- fmt.Errorf("node %v read a torn entry set: %v", id, entries)
							return
						}
					}
				}
			}(overlay.NodeID(i))
		}
		readers.Wait()
		close(stop)
		writer.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}
