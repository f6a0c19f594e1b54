package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/policy"
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

// updateTap is the goroutine link, recording every update of type ty it
// carries, and its recipient.
type updateTap struct {
	*chanLink
	ty   cup.UpdateType
	mu   sync.Mutex
	sent []cup.Update
	to   []overlay.NodeID
}

func (l *updateTap) send(from *peer, to overlay.NodeID, m message) {
	if m.kind == msgUpdate && m.update.Type == l.ty {
		l.mu.Lock()
		l.sent, l.to = append(l.sent, *m.update), append(l.to, to)
		l.mu.Unlock()
	}
	l.chanLink.send(from, to, m)
}

// bootTap boots a goroutine network of cfg over tap.
func bootTap(t *testing.T, cfg Config, tap *updateTap) *Network {
	t.Helper()
	tap.chanLink = &chanLink{}
	n, err := boot(cfg.withDefaults(), tap)
	if err != nil {
		t.Fatal(err)
	}
	tap.start(n)
	t.Cleanup(n.Close)
	return n
}

// A Delete stays justified for one replica lifetime, as the simulator's
// RemoveReplica has it: the authority stamps it to expire
// cup.DefaultLifetime after it originates.
func TestDeleteExpiresOneLifetimeOut(t *testing.T) {
	tap := &updateTap{ty: cup.Delete}
	n := bootTap(t, Config{Nodes: 16, HopDelay: 200 * time.Microsecond, Seed: 5}, tap)
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
	if len(tap.sent) == 0 {
		t.Fatal("the authority pushed no Delete to the peer that asked for k")
	}
	if exp := tap.sent[0].Expires; exp < before.Add(cup.DefaultLifetime) || exp > after.Add(cup.DefaultLifetime) {
		t.Fatalf("Delete expires at %v, want one lifetime (%v s) after its origin in [%v, %v]",
			exp, cup.DefaultLifetime, before, after)
	}
}

// An update one handler fans out travels with each hop after the hop
// delay, by when the owner's next handler has overwritten the out-update
// the handler's sends point at: each child must still get the update as
// sent.
func TestAsyncHopOwnsItsUpdate(t *testing.T) {
	tap := &updateTap{ty: cup.Append}
	n := bootTap(t, Config{Nodes: 16, HopDelay: 20 * time.Millisecond, Seed: 5}, tap)
	auth := n.Authority("k")
	other := overlay.Key("k2") // a second key at the same authority
	for i := 3; n.Authority(other) != auth; i++ {
		other = overlay.Key(fmt.Sprint("k", i))
	}
	ctx := ctxShort(t)
	for _, key := range []overlay.Key{"k", other} { // every peer asks, so the authority has children
		add(t, n, key, 0, "10.0.0.1", time.Hour)
		var wg sync.WaitGroup
		for id := 0; id < n.Size(); id++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := n.Lookup(ctx, overlay.NodeID(id), key); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	tap.mu.Lock()
	tap.sent, tap.to = nil, nil // the Appends of add went nowhere: no one had asked yet
	tap.mu.Unlock()
	a := n.peerAt(auth)
	if err := a.locked(ctx, "", func() {
		a.dispatch(a.node.ReplicaEvent(cup.Append, "k", 1, "10.0.0.2", 3600))
		a.dispatch(a.node.ReplicaEvent(cup.Refresh, other, 0, "10.0.0.9", 3600)) // overwrites the out-update
	}); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	children := append([]overlay.NodeID(nil), tap.to...)
	tap.mu.Unlock()
	if len(children) < 2 {
		t.Fatalf("the authority sent k's Append to %v, want two or more children", children)
	}
	for _, c := range children {
		deadline := time.Now().Add(3 * time.Second)
		for {
			entries, err := n.Lookup(ctx, c, "k")
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) == 2 && entries[0].Addr == "10.0.0.1" && entries[1].Addr == "10.0.0.2" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("child %v holds %+v for k, want replicas 0 and 1 at 10.0.0.1 and 10.0.0.2", c, entries)
			}
			time.Sleep(5 * time.Millisecond)
		}
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

// TestCancelledLookupLeavesNoWaiter: lookups cancelled at a peer whose
// lock is held, their answers an hour away, leave its waiter table empty
// once the lock is free, wherever the cancellation lands. A lookup still
// waiting for the lock returns without registering. One that registered
// and waits for its answer leaves its forget waiting for the lock; a
// forget that looked too early, or not at all, would leave a waiter that
// nothing removes.
func TestCancelledLookupLeavesNoWaiter(t *testing.T) {
	const lookups = 200
	for _, registered := range []bool{false, true} {
		t.Run(fmt.Sprint("registered=", registered), func(t *testing.T) {
			n := NewNetwork(Config{Nodes: 16, Seed: 5, HopDelay: time.Hour})
			defer n.Close()
			p := n.peerAt(0)
			hold := func() (release func()) {
				r, blocked := make(chan struct{}), make(chan struct{})
				go n.Inspect(p.id, func(*cup.Node) { close(blocked); <-r })
				<-blocked
				return func() { close(r) }
			}
			waiters := func() (keys, open int) {
				if err := p.locked(ctxShort(t), "", func() {
					for _, ws := range p.waiters {
						open += len(ws)
					}
					keys = len(p.waiters)
				}); err != nil {
					t.Fatal(err)
				}
				return keys, open
			}
			await := func(what string, done func() bool) {
				for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%s: not within 5 s", what)
					}
				}
			}
			queued := func() bool { used, _ := n.InboxLoadAt(p.id); return used == lookups }

			ctx, cancel := context.WithCancel(context.Background())
			errs := make(chan error, lookups)
			var release func()
			if !registered {
				release = hold()
			}
			for i, posted := 0, 0; posted < lookups; i++ {
				key := cup.WorkloadKey(i)
				if n.Authority(key) == p.id {
					continue // answered at once: no waiter
				}
				posted++
				go func() {
					_, err := n.Lookup(ctx, p.id, key)
					errs <- err
				}()
			}
			if registered {
				await("every lookup registers", func() bool { _, open := waiters(); return open == lookups })
				release = hold()
			} else {
				await("every lookup waits for the lock", queued)
			}
			cancel()
			for i := 0; i < lookups; i++ {
				if err := <-errs; !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled lookup returned %v", err)
				}
			}
			if registered {
				await("every forget waits for the lock", queued)
			}
			release()
			await("the waiter table empties", func() bool { keys, _ := waiters(); return keys == 0 })
		})
	}
}

// TestControlCallHonorsContextWhileLockHeld: a control call waiting for a
// peer's lock returns when its context ends, and takes the lock once it
// is free.
func TestControlCallHonorsContextWhileLockHeld(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		release, blocked, inspected := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(inspected)
			n.Inspect(3, func(*cup.Node) { close(blocked); <-release })
		}()
		<-blocked
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := n.SetCapacity(ctx, 3, 0.5); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("SetCapacity with the lock held returned %v, want the deadline", err)
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("SetCapacity with a 50 ms deadline returned after %v", waited)
		}
		close(release)
		<-inspected
		if err := n.SetCapacity(ctxShort(t), 3, 0.5); err != nil {
			t.Fatalf("SetCapacity with the lock free returned %v", err)
		}
	})
}

func TestCloseIsIdempotentAndStopsLoops(t *testing.T) {
	n := NewNetwork(Config{Nodes: 8, Seed: 5})
	n.Close()
	n.Close()
}

// TestCloseStrandsNothing closes a network in the middle of a lookup
// storm: nothing may stay blocked — not a hop in flight, not a lookup
// waiting for a peer's lock or its answer — so every goroutine the
// network and its callers started is gone within 2 s, and a lookup after
// Close fails fast.
func TestCloseStrandsNothing(t *testing.T) {
	// Inside fn, the subtest's goroutine runs while the test's waits.
	base := runtime.NumGoroutine() + 1
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
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
			t.Fatal("Lookup after Close still blocked after 2 s")
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines 2 s after Close, %d before boot", runtime.NumGoroutine(), base)
			}
		}
	})
}

// TestLivePeerHasNoGoroutine: a peer is its state and its lock, and what
// reaches it runs on the goroutine that brings it. Booting 64 peers on
// the goroutine link starts its delivery goroutines, one per shard
// (GOMAXPROCS of them, however many peers); on TCP it starts one accept
// loop per peer and nothing else (connections, and their readers, come
// with the first sends).
func TestLivePeerHasNoGoroutine(t *testing.T) {
	const nodes = 64
	for _, tc := range []struct {
		name string
		boot func() (*Network, error)
		want int
	}{
		{"chan", func() (*Network, error) { return NewNetwork(Config{Nodes: nodes}), nil }, runtime.GOMAXPROCS(0)},
		{"tcp", func() (*Network, error) { return NewTCPNetwork(Config{Nodes: nodes}) }, nodes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Goroutines another test left behind may still be exiting: a
			// boot passes if one of a few tries starts exactly want.
			var started []int
			for try := 0; try < 5; try++ {
				before := runtime.NumGoroutine()
				n, err := tc.boot()
				if err != nil {
					t.Fatal(err)
				}
				started = append(started, runtime.NumGoroutine()-before)
				n.Close()
				if started[try] == tc.want {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t.Fatalf("booting %d peers started %v goroutines, want %d", nodes, started, tc.want)
		})
	}
}

// Sends from one peer to one neighbour arrive in send order on both
// links: the goroutine link's FIFO, like TCP's one connection per pair,
// keeps them in line. Each update is for a key the receiver holds no
// interest in, so under a never-keep policy it fires one cut-off event
// for it at the receiver, in the order the updates are handled. The
// sender sends in batches under its lock, as handlers do, and lets go
// between batches so the clear-bits coming back never fill its socket.
func TestLinkDeliversInSendOrder(t *testing.T) {
	const total, batch = 20000, 100
	node := cup.Defaults()
	node.Policy = policy.NeverKeep()
	var (
		mu  sync.Mutex
		got []overlay.Key
	)
	const from, to overlay.NodeID = 0, 1
	obs := cup.ObserverFunc(func(e cup.Event) {
		if e.Kind == cup.EvCutoffFired && e.Node == to {
			mu.Lock()
			got = append(got, e.Key)
			mu.Unlock()
		}
	})
	keys := make([]overlay.Key, total)
	for i := range keys {
		keys[i] = overlay.Key(fmt.Sprint("k", i))
	}
	bothTransports(t, Config{Node: node, HopDelay: time.Nanosecond, Observer: obs}, func(t *testing.T, n *Network) {
		mu.Lock()
		got = got[:0]
		mu.Unlock()
		a, ctx := n.peerAt(from), ctxShort(t)
		for i := 0; i < total; i += batch {
			acts := make([]cup.Action, batch)
			for j := range acts {
				key := keys[i+j]
				acts[j] = cup.Action{Kind: cup.ActSendUpdate, To: to, Key: key,
					Update: &cup.Update{Key: key, Type: cup.Refresh, Replica: 0, Depth: 1, Expires: 1e9}}
			}
			if err := a.locked(ctx, "", func() { a.dispatch(acts) }); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			arrived := len(got)
			mu.Unlock()
			if arrived == total {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d updates handled after 10 s", arrived, total)
			}
			time.Sleep(5 * time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		misplaced, first := 0, -1
		for i, k := range got {
			if k != keys[i] {
				misplaced++
				if first < 0 {
					first = i
				}
			}
		}
		if misplaced > 0 {
			t.Fatalf("%d of %d updates handled out of send order; the first at %d: %s, want %s",
				misplaced, total, first, got[first], keys[first])
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
// shows up as a race between a lock's holder and a caller.
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

// BenchmarkChanLookup is the goroutine link's row beside
// BenchmarkTCPLookup: benchLookup with a 1 ns injected hop, so it costs
// the delivery queue, the locks and the protocol, and no wait.
func BenchmarkChanLookup(b *testing.B) {
	n := NewNetwork(Config{Nodes: 64, Overlay: "can", Seed: 1, HopDelay: time.Nanosecond})
	defer n.Close()
	benchLookup(b, n)
}

// benchLookup times a first-time-miss lookup on n, a 64-node network:
// one new key per iteration, from a random peer, so each walks to the
// key's authority and back.
func benchLookup(b *testing.B, n *Network) {
	const warm = 512
	ctx := context.Background()
	keys := make([]overlay.Key, warm+b.N)
	for i := range keys {
		keys[i] = overlay.Key(fmt.Sprintf("b%d", i))
		if err := n.AddReplicaCtx(ctx, keys[i], 0, "10.0.0.1", time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	lookup := func(key overlay.Key) {
		if entries, err := n.Lookup(ctx, overlay.NodeID(rng.Intn(n.Size())), key); err != nil || len(entries) != 1 {
			b.Fatalf("lookup %s: %d entries, %v", key, len(entries), err)
		}
	}
	for _, key := range keys[:warm] { // every peer dials the neighbours it forwards to
		lookup(key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, key := range keys[warm:] {
		lookup(key)
	}
}

// TestReplicaEventAllocatesOnce pins the control path: a replica event
// for a key its authority already holds, and no peer has asked for,
// allocates only the store's copy-on-write set — no message, callback or
// done channel, and no update built for a push that does not happen.
func TestReplicaEventAllocatesOnce(t *testing.T) {
	bothTransports(t, Config{Nodes: 64}, func(t *testing.T, n *Network) {
		add(t, n, "held", 0, "10.0.0.1", time.Hour)
		ctx := context.Background()
		allocs := testing.AllocsPerRun(200, func() {
			if err := n.AddReplicaCtx(ctx, "held", 0, "10.0.0.1", time.Hour); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Fatalf("a replica event allocates %v times, want at most 1: the store's new set", allocs)
		}
	})
}

// BenchmarkReplicaEvent times one control call, a replica birth at its
// authority on a 64-node CAN, over the goroutine link (1 ns hop) and over
// TCP. No peer has asked for the key, so nothing propagates: the row is
// the control path alone, the authority's lock taken on the caller's
// goroutine.
func BenchmarkReplicaEvent(b *testing.B) {
	for _, tr := range []struct {
		name string
		boot func() (*Network, error)
	}{
		{"chan", func() (*Network, error) {
			return NewNetwork(Config{Nodes: 64, Overlay: "can", Seed: 1, HopDelay: time.Nanosecond}), nil
		}},
		{"tcp", func() (*Network, error) { return NewTCPNetwork(Config{Nodes: 64, Overlay: "can", Seed: 1}) }},
	} {
		b.Run(tr.name, func(b *testing.B) {
			n, err := tr.boot()
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.AddReplicaCtx(ctx, "replica-event", 0, "10.0.0.1", time.Hour); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
