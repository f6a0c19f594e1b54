package cup

import (
	"cup/internal/cache"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// arenaChunk is the fixed capacity of one key-state block. Slots are
// addressed by dense int32 handles and chunks never grow past their
// capacity, so &chunk[i] stays stable for the arena's lifetime — handlers
// hold *keyState across allocations.
const arenaChunk = 1024

// arenaSlot is one key's bookkeeping inside the pool, threaded onto its
// owning node's intrusive singly-linked key list.
type arenaSlot struct {
	key  overlay.Key
	next int32 // next slot of the same node, -1 terminates
	ks   keyState
}

// arenaPool is a chunked slab of key-state slots: stable addresses (no
// chunk ever reallocates), dense int32 handles, one bump-pointer
// allocation path and no per-key map or per-state heap object.
type arenaPool struct {
	chunks [][]arenaSlot
	n      int32
}

func (p *arenaPool) at(i int32) *arenaSlot {
	return &p.chunks[i/arenaChunk][i%arenaChunk]
}

func (p *arenaPool) alloc() int32 {
	if int(p.n)%arenaChunk == 0 {
		p.chunks = append(p.chunks, make([]arenaSlot, 0, arenaChunk))
	}
	c := len(p.chunks) - 1
	p.chunks[c] = append(p.chunks[c], arenaSlot{})
	i := p.n
	p.n++
	return i
}

// Arena is the struct-of-arrays backing store for simulation-scale node
// populations: all Node structs in one slice (dense uint32 handles ==
// overlay IDs), cache stores by value in parallel slices, per-key state
// in chunked slabs threaded per node, and one nodeEnv instead of per-node
// Config/Router copies. At n=10⁶ this is the difference between
// ~150 bytes of resident state per untouched node and the standalone
// representation's four heap objects (Node, two Stores, keys map) before
// any traffic arrives. Behavior is identical to standalone nodes; the
// *Node API is a thin view over the arrays.
type Arena struct {
	// env owns every node: one action buffer and one key-state slab.
	env    *nodeEnv
	nodes  []Node
	stores []cache.Store
	locals []cache.Store
	// keyHead[slot] is the first key-state slot of node slot in env's
	// pool, -1 if none.
	keyHead []int32
}

// NewArena builds n arena-backed nodes with dense IDs 0..n-1, all sharing
// cfg and router and reading clock.
func NewArena(n int, cfg Config, router Router, clock func() sim.Time) *Arena {
	if clock == nil {
		panic("cup: clock is required")
	}
	env := newNodeEnv(cfg, router)
	a := &Arena{
		env:     env,
		nodes:   make([]Node, n),
		stores:  make([]cache.Store, n),
		locals:  make([]cache.Store, n),
		keyHead: make([]int32, n),
	}
	for i := range a.nodes {
		nd := &a.nodes[i]
		nd.id = overlay.NodeID(i)
		nd.env = env
		nd.now = clock
		nd.store = &a.stores[i]
		nd.local = &a.locals[i]
		nd.a = a
		nd.slot = uint32(i)
		nd.capacityFraction = -1
		a.keyHead[i] = -1
	}
	return a
}

// Len returns the node population.
func (a *Arena) Len() int { return len(a.nodes) }

// Node returns the thin pointer view of node i. The pointer is stable for
// the arena's lifetime.
func (a *Arena) Node(i int) *Node { return &a.nodes[i] }

// SetObserver installs o on every node.
func (a *Arena) SetObserver(o Observer) {
	for i := range a.nodes {
		a.nodes[i].obs = o
	}
}

// KeyStates returns the total number of allocated per-key states — the
// denominator-free numerator for bytes-per-node accounting.
func (a *Arena) KeyStates() int { return int(a.env.pool.n) }

// state returns (allocating if needed) node n's bookkeeping for k.
func (a *Arena) state(n *Node, k overlay.Key) *keyState {
	if ks := a.peek(n, k); ks != nil {
		return ks
	}
	pool := &n.env.pool
	i := pool.alloc()
	sl := pool.at(i)
	sl.key = k
	sl.next = a.keyHead[n.slot]
	sl.ks = keyState{
		watchReplica: -1,
		inst:         n.env.cfg.Policy.New(),
		dist:         -1,
	}
	a.keyHead[n.slot] = i
	return &sl.ks
}

// peek returns node n's bookkeeping for k without allocating, or nil.
//
//cup:hotpath
func (a *Arena) peek(n *Node, k overlay.Key) *keyState {
	pool := &n.env.pool
	for i := a.keyHead[n.slot]; i >= 0; {
		sl := pool.at(i)
		if sl.key == k {
			return &sl.ks
		}
		i = sl.next
	}
	return nil
}

// each visits every key state of node n.
func (a *Arena) each(n *Node, fn func(*keyState)) {
	pool := &n.env.pool
	for i := a.keyHead[n.slot]; i >= 0; {
		sl := pool.at(i)
		fn(&sl.ks)
		i = sl.next
	}
}
