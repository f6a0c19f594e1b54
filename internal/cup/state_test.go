package cup

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"cup/internal/cache"
	"cup/internal/overlay"
)

// testOwner builds an owner with a block of n nodes, the way a simulation
// does.
func testOwner(n int) (*nodeEnv, []Node) {
	clk := &fakeClock{t: 10}
	env := newNodeEnv(Defaults(), lineRouter{}, clk.now)
	block := make([]Node, n)
	for i := range block {
		env.node(&block[i], overlay.NodeID(i))
	}
	return env, block
}

// The owner's lookup against a map oracle: random (node, key) touches
// through every growth of the table and the slab, at the two extreme
// shapes it must serve — one key over 2¹⁷ nodes (the simulator) and 2¹⁶
// keys on one node (a live peer) — and a square one. Every state keeps
// its address, is found again by the same pair and no other, and each
// node's list visits exactly its own states, once each. The index holds
// every state but each node's newest, which the node's head finds: at one
// key a node it holds nothing.
func TestStateIndexMatchesOracle(t *testing.T) {
	for _, shape := range []struct{ nodes, keys, touches int }{
		{1 << 17, 1, 1 << 18},
		{1, 1 << 16, 1 << 17},
		{1 << 8, 1 << 8, 1 << 17},
	} {
		t.Run(fmt.Sprintf("%dx%d", shape.nodes, shape.keys), func(t *testing.T) {
			env, block := testOwner(shape.nodes)
			kids := make([]KeyID, shape.keys)
			for i := range kids {
				kids[i] = env.keys.intern(overlay.Key(fmt.Sprintf("key-%d", i)))
			}
			oracle := make(map[[2]uint32]int32)
			addr := make(map[int32]*keyState)
			rng := rand.New(rand.NewSource(int64(shape.nodes)))
			for i := 0; i < shape.touches; i++ {
				nd, kid := rng.Intn(shape.nodes), kids[rng.Intn(shape.keys)]
				pair := [2]uint32{uint32(nd), uint32(kid)}
				h, known := oracle[pair]
				if peeked := block[nd].peek(kid); (peeked != nil) != known {
					t.Fatalf("touch %d: peek(%d, %d) = %p, the oracle has it: %v", i, nd, kid, peeked, known)
				}
				ks := block[nd].state(kid)
				if !known {
					h = env.pool.n - 1
					oracle[pair], addr[h] = h, ks
				}
				if ks != addr[h] || ks != env.pool.at(h) || ks.kid != kid {
					t.Fatalf("touch %d: state(%d, %d) = %p (kid %d), want handle %d at %p", i, nd, kid, ks, ks.kid, h, addr[h])
				}
			}
			holders := 0
			for nd := range block {
				if h := block[nd].head; h >= 0 {
					holders++
					if env.index.get(uint32(nd), env.pool.at(h).kid) >= 0 {
						t.Fatalf("node %d's newest state is in the index", nd)
					}
				}
			}
			if int(env.pool.n) != len(oracle) || env.index.n != len(oracle)-holders {
				t.Fatalf("%d states in the slab, %d in the index, %d in the oracle over %d nodes", env.pool.n, env.index.n, len(oracle), holders)
			}
			if shape.keys == 1 && len(env.index.tab) != 0 {
				t.Errorf("one key a node, and the index grew to %d entries", len(env.index.tab))
			}
			if 4*env.index.n > 3*len(env.index.tab) || len(env.index.tab) > 4*max(env.index.n, 2) {
				t.Errorf("index of %d entries for %d states: not sized to the states", len(env.index.tab), env.index.n)
			}
			// A pair never touched stays unknown, whatever its neighbours.
			if env.node(new(Node), overlay.NodeID(shape.nodes)).peek(kids[0]) != nil || block[0].peek(KeyID(shape.keys)) != nil {
				t.Error("peek found a state nobody created")
			}
			visited := 0
			for nd := range block {
				seen := make(map[KeyID]bool)
				block[nd].eachState(func(ks *keyState) {
					h, ok := oracle[[2]uint32{uint32(nd), uint32(ks.kid)}]
					if !ok || addr[h] != ks || seen[ks.kid] {
						t.Fatalf("node %d's list visits state %p (kid %d): in the oracle %v, seen before %v", nd, ks, ks.kid, ok, seen[ks.kid])
					}
					seen[ks.kid] = true
					visited++
				})
			}
			if visited != len(oracle) {
				t.Errorf("the nodes' lists visit %d states, the oracle holds %d", visited, len(oracle))
			}
		})
	}
}

// A key state is 104 bytes, two cache lines and a word: what only an open
// query needs — pending children, route-back tokens, a waiting client's
// issue time, 56 bytes — is in its openQuery record, which a state points
// at only while a query is open at its node.
func TestKeyStateSize(t *testing.T) {
	if got := unsafe.Sizeof(keyState{}); got > 104 {
		t.Errorf("keyState is %d bytes, want ≤ 104", got)
	}
}

// Open-query records travel from state to state through the owner's free
// list, and grown arrays do not travel with them. A λ = 1000
// standard-caching run piles route-back tokens up at nodes whose clients
// ask faster than answers return; after it every record on the free list
// carries arrays of at most openCap, and the records together hold no
// more array than the states held when the arrays were their own:
// 881,112 B, measured on this run before the record existed.
func TestOpenQueryRecordsHoldNoMoreThanStates(t *testing.T) {
	const statesHeld = 881112
	s := NewSimulation(Params{Nodes: 1024, QueryRate: 1000, QueryDuration: 600, Config: Standard(), Seed: 1})
	s.Run()
	size := func(q *openQuery) int {
		return cap(q.routeBack)*int(unsafe.Sizeof(routeEntry{})) + cap(q.pendingChildren)*int(unsafe.Sizeof(overlay.NodeID(0)))
	}
	held, attached, pooled := 0, 0, 0
	for h := int32(0); h < s.env.pool.n; h++ {
		if q := s.env.pool.at(h).open; q != nil {
			held += size(q)
			attached++
		}
	}
	for q := s.env.free; q != nil; q = q.next {
		if cap(q.routeBack) > openCap || cap(q.pendingChildren) > openCap {
			t.Fatalf("a pooled record carries arrays of %d and %d, want ≤ %d", cap(q.routeBack), cap(q.pendingChildren), openCap)
		}
		held += size(q)
		pooled++
	}
	t.Logf("%d records with states, %d pooled: %d B of arrays (the states held %d B)", attached, pooled, held, statesHeld)
	if held > statesHeld {
		t.Errorf("the records hold %d B of arrays, the states held %d B", held, statesHeld)
	}
}

// The slab grows by doubling chunks up to maxChunk, so a small owner holds
// a small slab; locate must agree with the chunks alloc makes.
func TestStatePoolChunksGrowGeometrically(t *testing.T) {
	var p statePool
	for i := int32(0); i < 3*maxChunk; i++ {
		h, ks := p.alloc()
		if h != i || ks != p.at(i) {
			t.Fatalf("alloc %d: handle %d, %p != at = %p", i, h, ks, p.at(i))
		}
		held := 0
		for _, c := range p.chunks {
			held += len(c)
		}
		// Never more than twice what is in use, nor — once the chunks
		// stop doubling — more than one chunk beyond it.
		limit := 2 * int(i+1)
		if i+1 >= maxChunk {
			limit = int(i+1) + maxChunk
		}
		if held > limit {
			t.Fatalf("after %d states the slab holds %d slots, want ≤ %d", i+1, held, limit)
		}
	}
	if len(p.chunks[0]) != 1 || len(p.chunks[len(p.chunks)-1]) != maxChunk {
		t.Errorf("chunks run from %d to %d slots, want 1 to %d", len(p.chunks[0]), len(p.chunks[len(p.chunks)-1]), maxChunk)
	}
}

// Reads, and control messages a buggy or hostile peer may send, create
// nothing: 10 000 clear-bits and reads for keys the node never saw leave
// the slab, the index and the intern table empty.
func TestReadsAndStrayClearBitsCreateNoState(t *testing.T) {
	clk := &fakeClock{t: 10}
	n := newTestNode(5, Defaults(), clk)
	for i := 0; i < 10000; i++ {
		k := overlay.Key(fmt.Sprintf("never-seen-%d", i))
		if acts := n.HandleClearBit(overlay.NodeID(6+i%3), k); acts != nil {
			t.Fatalf("clear-bit for unknown key %q produced %v", k, kinds(acts))
		}
		if n.ClientAnswer(k) != nil || n.HasFreshAnswer(k) || n.PendingFirstUpdate(k) || n.EverHeld(k) ||
			n.Popularity(k) != 0 || n.InterestedNeighbors(k) != nil || n.Distance(k) != -1 || n.Cached(k) != nil {
			t.Fatalf("a read of unknown key %q returned a non-zero answer", k)
		}
	}
	env := n.env
	if env.pool.n != 0 || env.index.n != 0 || len(env.keys.names) != 0 || len(env.keys.ids) != 0 || n.head != -1 {
		t.Errorf("after 10 000 stray clear-bits and reads: %d states, %d indexed, %d+%d keys interned",
			env.pool.n, env.index.n, len(env.keys.names), len(env.keys.ids))
	}
	// An authority originating updates for keys nobody asked about holds
	// a directory entry each and nothing else.
	auth := newTestNode(0, Defaults(), clk)
	for i := 0; i < 1000; i++ {
		k := overlay.Key(fmt.Sprintf("seeded-%d", i))
		auth.InstallLocal(entry(k, 0, 1e9))
		if acts := auth.originateUpdate(Update{Key: k, Type: Append, Entries: []cache.Entry{entry(k, 0, 1e9)}, Expires: 1e9}); acts != nil {
			t.Fatalf("originating %q with no interest produced %v", k, kinds(acts))
		}
	}
	if auth.env.pool.n != 0 || len(auth.env.keys.names) != 0 {
		t.Errorf("an unqueried authority holds %d states and %d interned keys", auth.env.pool.n, len(auth.env.keys.names))
	}
	// A key the owner knows but this node holds no state for reads the same.
	s := NewSimulation(Params{Nodes: 16, NoWorkload: true, Seed: 1})
	far := s.Node((s.Ov.Owner(s.Keys[0]) + 5) % 16)
	before := s.env.pool.n
	if far.HandleClearBit(1, s.Keys[0]) != nil || far.Popularity(s.Keys[0]) != 0 || s.env.pool.n != before {
		t.Error("a clear-bit for an interned key created state at a node that held none")
	}
}

// heapHeld returns the live heap after a full collection.
func heapHeld() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A live network is a thousand owners of one node each, so what an owner
// holds before and just after its first key is paid a thousand times. The
// map-backed node of commit 47b260a — a Node, two Stores, a keys map, a
// keyState and a store map entry — held 1816 B with one key's state and
// one cached entry (this very measurement, run there); the slab-backed
// one must not hold more, which a first chunk of 1024 slots (~190 KB)
// would.
func TestStandaloneNodeFootprint(t *testing.T) {
	const (
		nodes        = 4096
		parentHolds  = 1816 // bytes per node, measured at 47b260a
		idleOwnerMax = 512  // bytes per node that has seen no key
	)
	clk := &fakeClock{t: 10}
	keep := make([]*Node, 0, nodes)
	before := heapHeld()
	for i := 0; i < nodes; i++ {
		keep = append(keep, NewNode(5, Defaults(), lineRouter{}, clk.now))
	}
	idle := float64(heapHeld()-before) / nodes
	for _, n := range keep {
		warm(n, "k")
	}
	held := float64(heapHeld()-before) / nodes
	runtime.KeepAlive(keep)
	t.Logf("standalone node: %.0f B idle, %.0f B with one key's state and entry (map-backed parent: %d B)", idle, held, parentHolds)
	if idle > idleOwnerMax {
		t.Errorf("an owner that has seen no key holds %.0f B, want ≤ %d: something is allocated before the first key", idle, idleOwnerMax)
	}
	if held > parentHolds {
		t.Errorf("node + one key's state and entry hold %.0f B, the map-backed node held %d", held, parentHolds)
	}
}

// Every owner's intern table, slab and index are its own: handlers of
// different owners run concurrently (the live peers do) and must share no
// state. Run under -race, which is what checks it.
func TestOwnersShareNothing(t *testing.T) {
	clk := &fakeClock{t: 10}
	cfg := Defaults()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := NewNode(overlay.NodeID(5), cfg, lineRouter{}, clk.now)
			for i := 0; i < 2000; i++ {
				k := overlay.Key(fmt.Sprintf("key-%d", (i*7+g)%300))
				n.HandleQuery(6, k, 0)
				n.HandleUpdate(4, firstTime(k, 1, 1e9))
				n.HandleUpdate(4, refresh(k, 0, 1, 1e9))
				n.HandleClearBit(6, k)
				n.ClientAnswer(k)
			}
			if got := len(n.env.keys.names); got != 300 || int(n.env.pool.n) != 300 {
				t.Errorf("owner %d: %d keys interned, %d states, want 300 of each", g, got, n.env.pool.n)
			}
		}(g)
	}
	wg.Wait()
}

var sinkState *keyState

// BenchmarkKeyState is the ledger row for the key-state lookup: a hit at
// the simulator's shape (one key, a random node of 1024) and at the live
// peer's (a random key of 4096 on one node), and a first touch.
func BenchmarkKeyState(b *testing.B) {
	picks := func(n int) []int {
		rng := rand.New(rand.NewSource(1))
		out := make([]int, 8192)
		for i := range out {
			out[i] = rng.Intn(n)
		}
		return out
	}
	b.Run("hit/1key-1024nodes", func(b *testing.B) {
		env, block := testOwner(1024)
		kid := env.keys.intern("key-0")
		for i := range block {
			block[i].state(kid)
		}
		pick := picks(1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkState = block[pick[i&8191]].state(kid)
		}
	})
	b.Run("hit/4096keys-1node", func(b *testing.B) {
		env, block := testOwner(1)
		for i := 0; i < 4096; i++ {
			block[0].state(env.keys.intern(overlay.Key(fmt.Sprintf("key-%d", i))))
		}
		pick := picks(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkState = block[0].state(KeyID(pick[i&8191]))
		}
	})
	b.Run("hit/4096keys-1node/by-string", func(b *testing.B) {
		env, block := testOwner(1)
		keys := make([]overlay.Key, 4096)
		for i := range keys {
			keys[i] = overlay.Key(fmt.Sprintf("key-%d", i))
			block[0].state(env.keys.intern(keys[i]))
		}
		pick := picks(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkState = block[0].state(env.keys.intern(keys[pick[i&8191]]))
		}
	})
	b.Run("first-touch", func(b *testing.B) {
		b.ReportAllocs()
		env, block := testOwner(b.N)
		kid := env.keys.intern("key-0")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkState = block[i].state(kid)
		}
	})
}

// A key state carries its cut-off policy state as one counter: creating
// 32 of them under the default policy — second-chance, which counts idle
// updates per key — allocates the one slab chunk they fill and nothing
// else — one key a node, so nothing goes into the index. (The 64 states
// made first fill the doubling chunks.)
func TestNewStatesAllocateOneChunk(t *testing.T) {
	env, block := testOwner(96)
	kid := env.keys.intern("k")
	for i := range block[:64] {
		block[i].state(kid)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range block[64:] {
		block[64+i].state(kid)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 1 {
		t.Errorf("32 new key states allocate %d objects, want 1 (their slab chunk)", n)
	}
	if env.pool.n != 96 || len(env.pool.chunks) != 8 {
		t.Errorf("slab holds %d states in %d chunks, want 96 in 8", env.pool.n, len(env.pool.chunks))
	}
}
