package live

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// bench is a peer on a workbench: a network of one whose link records
// what the peer sends, a clock set by hand, and a router on which the
// node being a key's authority can be flipped, which is all a join or
// leave is to one peer. The peer's goroutine runs its control callbacks;
// between them — each is waited out — the test calls the handlers
// itself, so the two never overlap. Node 0 is the peer; node 1 is
// upstream.
type bench struct {
	*peer
	clock     atomic.Uint64 // float64 bits
	authority atomic.Bool
	sent      []message // what the last dispatches put on the link
}

func newBench(t *testing.T, obs cup.Observer) *bench {
	b := &bench{}
	b.setClock(1)
	n := &Network{cfg: Config{Observer: obs}.withDefaults(), link: b, closed: make(chan struct{})}
	b.peer = newPeer(n, 0, b, b.time)
	n.peers.Store(&[]*peer{b.peer})
	n.wg.Add(1)
	go b.loop()
	t.Cleanup(n.Close)
	return b
}

func (b *bench) time() sim.Time      { return sim.Time(math.Float64frombits(b.clock.Load())) }
func (b *bench) setClock(t sim.Time) { b.clock.Store(math.Float64bits(float64(t))) }

func (b *bench) NextHopTowardOwner(n overlay.NodeID, _ overlay.Key) overlay.NodeID {
	if b.authority.Load() {
		return n
	}
	return 1
}

func (b *bench) open(*peer) error                          { return nil }
func (b *bench) close(*peer)                               {}
func (b *bench) send(_ *peer, _ overlay.NodeID, m message) { b.sent = append(b.sent, m) }

// ask is a local client's query taken through the mailbox path; an
// upstream query it sends is answered at once with entries.
func (b *bench) ask(key overlay.Key, upstream []cache.Entry) {
	before := len(b.sent)
	b.dispatch(b.query(cup.LocalClient, key, 0))
	if len(b.sent) > before && b.sent[len(b.sent)-1].kind == msgQuery {
		b.dispatch(b.update(1, cup.Update{Key: key, Type: cup.FirstTime, Entries: upstream,
			Replica: -1, Depth: 1, Expires: maxExpires(upstream)}))
	}
}

func maxExpires(es []cache.Entry) sim.Time {
	max := sim.Time(1e18) // an empty answer must not count as expired in flight
	if len(es) > 0 {
		max = 0
	}
	for _, e := range es {
		if e.Expires > max {
			max = e.Expires
		}
	}
	return max
}

func equalEntries(a, b []cache.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestViewModel drives one peer through random interleavings of
// everything that can change a key's client answer — replica births,
// refreshes and deletions at the authority and as updates from
// upstream, local answers, time passing over expiries, flushes, and
// authority flipping with its hand-over as under join and leave — while
// readers hammer the view. After every step the view's answer for every
// key is nil or exactly what a mailbox query would read, and non-nil
// where a published set is wholly fresh; every concurrent read equals
// the client answer as of some step between the one finished before it
// began and the one begun before it ended, so a reader never sees an
// entry past the step that removed or outlived it.
func TestViewModel(t *testing.T) {
	const (
		steps   = 4000
		readers = 4
	)
	keys := []overlay.Key{"a", "b", "c", "d", "e", "f"}
	b := newBench(t, nil)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	// history[i][k] is k's client answer once step i was done (history[0]:
	// before any). began and done bracket the step being executed.
	var (
		histMu      sync.RWMutex
		history     = []map[overlay.Key][]cache.Entry{{}}
		began, done atomic.Int64
		stop        atomic.Bool
		wg          sync.WaitGroup
		failed      atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failed.CompareAndSwap(nil, &msg)
		stop.Store(true)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := keys[rr.Intn(len(keys))]
				lo := done.Load()
				now := b.time()
				got := b.view.read(k, now)
				hi := began.Load()
				if got == nil {
					continue
				}
				for _, e := range got {
					if !e.Fresh(now) {
						fail("reader at t=%v got expired entry %v", now, e)
					}
				}
				for done.Load() < hi && !stop.Load() {
					time.Sleep(time.Microsecond) // the step in flight when the read ended
				}
				histMu.RLock()
				ok := false
				for i := lo; i <= hi && int(i) < len(history) && !ok; i++ {
					ok = equalEntries(got, history[i][k])
				}
				histMu.RUnlock()
				if !ok && !stop.Load() {
					fail("reader got %v for %q, the client answer at no step in [%d, %d]", got, k, lo, hi)
				}
			}
		}(int64(r) + 100)
	}

	// held is the store a mailbox query for k reads, stale entries and all.
	held := func(k overlay.Key) []cache.Entry {
		if b.node.IsAuthority(k) {
			return b.node.LocalDirectory().All(k)
		}
		return b.node.Cached(k)
	}
	entry := func(k overlay.Key) cache.Entry {
		return cache.Entry{Key: k, Replica: rng.Intn(3), Addr: fmt.Sprintf("10.0.0.%d", rng.Intn(250)),
			Expires: b.time().Add(sim.Duration(0.5 + 4*rng.Float64()))}
	}
	hot := map[overlay.Key]bool{} // a local client was answered and the key has had entries since
	for step := 1; step <= steps && !stop.Load(); step++ {
		began.Store(int64(step))
		k := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(10); {
		case op < 3: // a replica is born or refreshed
			e := entry(k)
			life := e.Expires.Sub(b.time())
			if b.authority.Load() {
				ty := cup.Append
				if rng.Intn(2) == 0 {
					ty = cup.Refresh
				}
				if err := b.replicaEvent(ctx, ty, k, e.Replica, e.Addr, life); err != nil {
					t.Fatal(err)
				}
			} else {
				b.dispatch(b.update(1, cup.Update{Key: k, Type: cup.Refresh, Entries: []cache.Entry{e},
					Replica: e.Replica, Depth: 1, Expires: e.Expires, Lifetime: life}))
			}
		case op < 4: // a replica dies
			if b.authority.Load() {
				if err := b.replicaEvent(ctx, cup.Delete, k, rng.Intn(3), "", cup.DefaultLifetime); err != nil {
					t.Fatal(err)
				}
			} else {
				b.dispatch(b.update(1, cup.Update{Key: k, Type: cup.Delete, Replica: rng.Intn(3), Depth: 1}))
			}
		case op < 7: // a local client asks through the mailbox
			b.ask(k, []cache.Entry{entry(k)})
			if len(b.node.ClientAnswer(k)) > 0 {
				hot[k] = true
			}
		case op < 8: // time passes, sometimes past expiries
			b.setClock(b.time().Add(sim.Duration(rng.Float64())))
		case op < 9: // a flush of expired entries (any control callback)
			if err := b.run(ctx, func() { b.node.FlushExpired() }); err != nil {
				t.Fatal(err)
			}
		default: // join or leave moves authority, with its hand-over
			if err := b.run(ctx, func() {
				if b.authority.Load() {
					for _, k := range keys {
						b.node.LocalDirectory().RemoveKey(k)
					}
					b.authority.Store(false)
				} else {
					b.authority.Store(true)
					for _, k := range keys {
						if rng.Intn(2) == 0 {
							b.node.InstallLocal(entry(k))
						}
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		b.sent = b.sent[:0]

		// The step is over: the view must agree with the node.
		snap := make(map[overlay.Key][]cache.Entry, len(keys))
		now := b.time()
		for _, k := range keys {
			want := b.node.ClientAnswer(k)
			snap[k] = append([]cache.Entry(nil), want...)
			got := b.view.read(k, now)
			if got != nil && !equalEntries(got, want) {
				t.Fatalf("step %d: view answers %v for %q, a mailbox query would read %v", step, got, k, want)
			}
			if len(want) == 0 {
				hot[k] = false
			}
			if got == nil && hot[k] && len(want) == len(held(k)) {
				t.Fatalf("step %d: view has no answer for %q, published and wholly fresh: %v", step, k, want)
			}
		}
		histMu.Lock()
		history = append(history, snap)
		histMu.Unlock()
		done.Store(int64(step))
	}
	stop.Store(true)
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if b.view.open > len(keys) || b.view.used > 2*len(keys) {
		t.Fatalf("view holds %d open slots in %d positions for %d keys", b.view.open, b.view.used, len(keys))
	}
}

// TestViewCountsEveryHit pins the hit count against the races that could
// lose or double one: slots are replaced (closed and drained) as fast as
// the writer can while readers hit them, and in the end the node has
// been credited with exactly the reads the view served.
func TestViewCountsEveryHit(t *testing.T) {
	b := newBench(t, nil)
	b.authority.Store(true) // the authority's path never resets popularity
	ctx := context.Background()
	if err := b.replicaEvent(ctx, cup.Append, "k", 0, "10.0.0.1", 3600); err != nil {
		t.Fatal(err)
	}
	b.ask("k", nil)
	var (
		served atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if b.view.read("k", b.time()) != nil {
					served.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if err := b.replicaEvent(ctx, cup.Refresh, "k", i%2, "10.0.0.1", 3600); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			b.view.credit("k")
		}
	}
	stop.Store(true)
	wg.Wait()
	b.view.creditAll()
	// The one mailbox query above counts too.
	if got, want := b.node.Popularity("k"), int(served.Load())+1; got != want {
		t.Fatalf("node credited with %d queries, view served %d", got, want)
	}
}

// recorder keeps the events a peer emits, minus their times.
type recorder struct {
	mu     sync.Mutex
	events []cup.Event
}

func (r *recorder) OnEvent(e cup.Event) {
	e.Time, e.Latency = 0, 0
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// TestViewAccountingParity runs the same history at two peers — one
// whose local hits are served by the view, one whose hits all go through
// HandleQuery — and requires the same popularity at every refresh, the
// same keep/cut decision on the same refresh, the same cost counters —
// queries, hits, justified and unjustified updates — and the same event
// stream. It runs twice: reading
// the popularity through a control callback before each refresh, which
// credits the view's hits on the way, and not reading it, so that the
// credit ahead of the update handler is all the cut-off decision has.
func TestViewAccountingParity(t *testing.T) {
	for _, inspect := range []bool{true, false} {
		t.Run(fmt.Sprintf("inspect=%v", inspect), func(t *testing.T) { accountingParity(t, inspect) })
	}
}

func accountingParity(t *testing.T, inspect bool) {
	const key = overlay.Key("k")
	viewObs, boxObs := &recorder{}, &recorder{}
	viaView, viaBox := newBench(t, viewObs), newBench(t, boxObs)
	refresh := func(b *bench, at sim.Time) []message {
		b.setClock(at)
		b.sent = b.sent[:0]
		b.dispatch(b.update(1, cup.Update{Key: key, Type: cup.Refresh, Replica: 0, Depth: 1,
			Entries:  []cache.Entry{{Key: key, Replica: 0, Addr: "10.0.0.1", Expires: at + 100}},
			Expires:  at + 100,
			Lifetime: 100}))
		return append([]message(nil), b.sent...)
	}
	first := []cache.Entry{{Key: key, Replica: 0, Addr: "10.0.0.1", Expires: 100}}
	for _, b := range []*bench{viaView, viaBox} {
		b.ask(key, first) // the miss that caches the entry and publishes it
		refresh(b, 2)     // a proactive update awaiting justification; the first idle one
	}
	// hits[i] local queries arrive before refresh i+1. Second-chance cuts
	// on the second idle refresh in a row: the one of round 2 if the five
	// hits of round 0 were credited, the one of round 0 if they were not.
	for i, hits := range []int{5, 0, 0, 3} {
		at := sim.Time(3 + i)
		viaView.setClock(at)
		viaBox.setClock(at)
		for h := 0; h < hits; h++ {
			if es := viaView.hit(key); len(es) != 1 {
				t.Fatalf("round %d: view did not serve a published fresh key: %v", i, es)
			}
			viaBox.dispatch(viaBox.query(cup.LocalClient, key, 0))
		}
		if inspect {
			var popView, popBox int
			_ = viaView.run(context.Background(), func() { popView = viaView.node.Popularity(key) })
			_ = viaBox.run(context.Background(), func() { popBox = viaBox.node.Popularity(key) })
			if popView != hits || popBox != hits {
				t.Fatalf("round %d: popularity %d via view, %d via mailbox, want %d", i, popView, popBox, hits)
			}
		}
		actsView, actsBox := refresh(viaView, at+0.5), refresh(viaBox, at+0.5)
		if len(actsView) != len(actsBox) {
			t.Fatalf("round %d: refresh led to %v via view, %v via mailbox", i, actsView, actsBox)
		}
		wantCut := i == 2
		if cut := len(actsView) == 1 && actsView[0].kind == msgClearBit; cut != wantCut {
			t.Fatalf("round %d: cut-off fired = %v, want %v", i, cut, wantCut)
		}
		if cv, cb := viaView.node.Counters(), viaBox.node.Counters(); cv != cb {
			t.Fatalf("round %d: counters %+v via view, %+v via mailbox", i, cv, cb)
		}
	}
	if c := viaView.node.Counters(); c.JustifiedUpdates == 0 || c.UnjustifiedUpdates == 0 {
		t.Fatalf("history exercised only one side of §3.1: %+v", c)
	}
	if len(viewObs.events) != len(boxObs.events) {
		t.Fatalf("%d events via view, %d via mailbox", len(viewObs.events), len(boxObs.events))
	}
	for i := range viewObs.events {
		if viewObs.events[i] != boxObs.events[i] {
			t.Fatalf("event %d: %+v via view, %+v via mailbox", i, viewObs.events[i], boxObs.events[i])
		}
	}
}

// entryFor picks a node that is not key's authority.
func entryFor(n *Network, key overlay.Key) overlay.NodeID {
	if n.Authority(key) == 3 {
		return 4
	}
	return 3
}

// TestLookupHitSkipsMailbox: once a peer has answered a local client,
// further lookups are served with the peer's goroutine blocked and its
// inbox untouched, allocate nothing, and are still counted.
func TestLookupHitSkipsMailbox(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		ctx := ctxShort(t)
		if err := n.AddReplicaCtx(ctx, "k", 0, "10.0.0.1", time.Hour); err != nil {
			t.Fatal(err)
		}
		for _, at := range []overlay.NodeID{entryFor(n, "k"), n.Authority("k")} {
			if es, err := n.Lookup(ctx, at, "k"); err != nil || len(es) != 1 {
				t.Fatalf("first lookup at %v = %v, %v", at, es, err)
			}
			release := make(chan struct{})
			blocked := make(chan struct{})
			go n.Inspect(at, func(*cup.Node) { close(blocked); <-release })
			<-blocked
			for i := 0; i < 10; i++ {
				if es, err := n.Lookup(ctx, at, "k"); err != nil || len(es) != 1 || es[0].Addr != "10.0.0.1" {
					t.Fatalf("lookup at blocked peer %v = %v, %v", at, es, err)
				}
			}
			if used, _ := n.InboxLoadAt(at); used != 0 {
				t.Fatalf("hits left %d messages in the inbox of %v", used, at)
			}
			if allocs := testing.AllocsPerRun(200, func() { _, _ = n.Lookup(ctx, at, "k") }); allocs != 0 {
				t.Fatalf("a lookup hit at %v allocates %v times", at, allocs)
			}
			close(release)
			var pop int
			n.Inspect(at, func(node *cup.Node) { pop = node.Popularity("k") })
			// 10 + (1 warm-up + 200) view hits. The peer that cached the key
			// reset its count when the answer arrived; the authority has
			// also counted that peer's forwarded query and its own first,
			// mailbox lookup.
			want := 10 + 201
			if at == n.Authority("k") {
				want += 2
			}
			if pop != want {
				t.Fatalf("popularity at %v = %d, want %d: every view hit credited once", at, pop, want)
			}
		}
	})
}

// TestCancelledLookupsLeaveNoWaiters: N lookups on a key that never
// answers, all cancelled, leave the peer's waiter table empty — on both
// transports, which share the one lookup.
func TestCancelledLookupsLeaveNoWaiters(t *testing.T) {
	bothTransports(t, Config{}, func(t *testing.T, n *Network) {
		const lookups = 25
		key := overlay.Key("never")
		at := entryFor(n, key)
		// The authority is busy for as long as the test likes: the query
		// reaches its inbox and is never answered.
		release := make(chan struct{})
		defer close(release)
		blocked := make(chan struct{})
		go n.Inspect(n.Authority(key), func(*cup.Node) { close(blocked); <-release })
		<-blocked

		waiting := func() int {
			var w int
			if err := n.peerAt(at).run(ctxShort(t), func() { w = len(n.peerAt(at).waiters[key]) }); err != nil {
				t.Fatal(err)
			}
			return w
		}
		ctx, cancel := context.WithCancel(context.Background())
		errs := make(chan error, lookups)
		for i := 0; i < lookups; i++ {
			go func() {
				_, err := n.Lookup(ctx, at, key)
				errs <- err
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for waiting() != lookups {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d lookups registered", waiting(), lookups)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		for i := 0; i < lookups; i++ {
			if err := <-errs; err != context.Canceled {
				t.Fatalf("cancelled lookup returned %v", err)
			}
		}
		for waiting() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d waiters left after every lookup was cancelled", waiting())
			}
			time.Sleep(time.Millisecond)
		}
		var tables int
		_ = n.peerAt(at).run(ctxShort(t), func() { tables = len(n.peerAt(at).waiters) })
		if tables != 0 {
			t.Fatalf("waiter table still holds %d keys", tables)
		}
	})
}

// TestViewFollowsReplicaLifecycle walks the view through a key's life
// on a real network: served after the first answer, changed by a
// refresh, gone with the replica, back with a new one.
func TestViewFollowsReplicaLifecycle(t *testing.T) {
	n := newTestNet(t, 16)
	ctx := ctxShort(t)
	at := entryFor(n, "k")
	inView := func() []cache.Entry { return n.peerAt(at).view.read("k", n.Now()) }
	settle := func(want func() bool, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !want(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("view never showed %s: %v", what, inView())
			}
		}
	}
	add(t, n, "k", 0, "10.0.0.1", time.Hour)
	if inView() != nil {
		t.Fatal("view holds a key no local client asked for")
	}
	if _, err := n.Lookup(ctx, at, "k"); err != nil {
		t.Fatal(err)
	}
	settle(func() bool { return len(inView()) == 1 }, "the first answer")
	add(t, n, "k", 1, "10.0.0.2", time.Hour)
	settle(func() bool { return len(inView()) == 2 }, "the second replica")
	for r := 0; r < 2; r++ {
		if err := n.RemoveReplicaCtx(ctx, "k", r); err != nil {
			t.Fatal(err)
		}
	}
	settle(func() bool {
		es, err := n.Lookup(ctx, at, "k")
		return err == nil && len(es) == 0
	}, "the key gone")
	if es := inView(); es != nil {
		t.Fatalf("view serves a deleted key: %v", es)
	}
	var open int
	n.Inspect(at, func(*cup.Node) { open = n.peerAt(at).view.open })
	if open != 0 {
		t.Fatalf("view keeps %d slots for a key with no entries", open)
	}
}

// TestViewExpiryFallsBackToMailbox: past an entry's expiry the view
// stops answering and the lookup is a mailbox miss again.
func TestViewExpiryFallsBackToMailbox(t *testing.T) {
	n := newTestNet(t, 16)
	ctx := ctxShort(t)
	at := entryFor(n, "k")
	add(t, n, "k", 0, "10.0.0.1", 80*time.Millisecond)
	if es, err := n.Lookup(ctx, at, "k"); err != nil || len(es) != 1 {
		t.Fatalf("first lookup = %v, %v", es, err)
	}
	time.Sleep(120 * time.Millisecond)
	if es := n.peerAt(at).view.read("k", n.Now()); es != nil {
		t.Fatalf("view serves an expired entry: %v", es)
	}
	if es, err := n.Lookup(ctx, at, "k"); err != nil || len(es) != 0 {
		t.Fatalf("lookup past expiry = %v, %v", es, err)
	}
}
