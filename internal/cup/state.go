package cup

import (
	"math/bits"

	"cup/internal/overlay"
)

// This file is where an owner keeps per-key state (§2.3): an intern table
// naming keys by dense integers, one chunked slab holding every key state
// of the owner's nodes, and one open-addressed index from (node, KeyID) to
// a slab handle. An owner is whatever serializes handler calls — a
// Simulation with a million nodes, or a live peer with one — and both get
// their state from this code; no handler ever touches another owner's.

// KeyID is an owner's name for a key: dense, issued in first-seen order,
// and local to that owner — two live peers number the same key
// differently, so a KeyID never goes on the wire or into an exported
// field. Inside one owner it replaces the key string wherever the
// simulator would otherwise hash or compare it.
type KeyID uint32

// keyTable interns an owner's keys. Only intern grows it; a read, or a
// control message naming a key the owner never saw, looks in ids.
type keyTable struct {
	ids   map[overlay.Key]KeyID
	names []overlay.Key // names[id] is the key id was issued for
	// last memoizes intern's most recent answer (valid once names is
	// non-empty): a run over one key — the paper's grid — resolves it with
	// one string compare that short-circuits on the shared pointer.
	last   overlay.Key
	lastID KeyID
}

// intern returns k's id, issuing the next one on first sight.
func (t *keyTable) intern(k overlay.Key) KeyID {
	if k == t.last && len(t.names) != 0 {
		return t.lastID
	}
	id, ok := t.ids[k]
	if !ok {
		if t.ids == nil {
			t.ids = make(map[overlay.Key]KeyID) // an owner's first key
		}
		id = KeyID(len(t.names))
		t.ids[k] = id                // a key's first sight
		t.names = append(t.names, k) // a key's first sight
	}
	t.last, t.lastID = k, id
	return id
}

// maxChunk caps the slab's chunk size. Chunks double up to it — 1, 1, 2,
// 4, … slots, maxChunk in all, then maxChunk a chunk — so an owner with
// one key (a live peer among a thousand) holds one slot. What an owner
// holds unused is at most its last chunk, which is why the cap is 32
// slots (5 KB) and not the 1024 a lone simulation would choose: a
// network of peers pays that slack once per peer.
const (
	chunkBits = 5
	maxChunk  = 1 << chunkBits
)

// statePool is a chunked slab of key states addressed by dense int32
// handles. A chunk is allocated at its full size and never reallocates, so
// &chunk[i] is stable for the owner's lifetime — handlers hold a *keyState
// across allocations.
type statePool struct {
	chunks   [][]keyState
	n, slots int32 // handed out; allocated across chunks
}

func (p *statePool) at(i int32) *keyState {
	if i >= maxChunk {
		return &p.chunks[chunkBits+i>>chunkBits][i&(maxChunk-1)]
	}
	b := bits.Len32(uint32(i)) // chunk b ≥ 1 starts at handle 2^(b-1)
	return &p.chunks[b][i-(1<<b)>>1]
}

// alloc hands out the next slot, zeroed.
func (p *statePool) alloc() (int32, *keyState) {
	if p.n == p.slots {
		size := min(max(p.slots, 1), maxChunk)
		p.chunks = append(p.chunks, make([]keyState, size))
		p.slots += size
	}
	p.n++
	return p.n - 1, p.at(p.n - 1)
}

// stateIndex maps (node, key) to a slab handle: one open-addressed table
// per owner with linear probing, sized to the states that exist — not to
// the node count — so it costs the same few words per state whether the
// owner is one key over a million nodes or 2¹⁸ keys on one. States are
// never freed, so there are no tombstones.
type stateIndex struct {
	tab   []indexEntry
	n     int
	shift uint8 // 64 − log₂ len(tab)
}

type indexEntry struct {
	node uint32
	kid  KeyID
	h    int32 // handle + 1; zero marks an empty entry
}

// slot is where (node, kid)'s probe sequence starts: Fibonacci hashing of
// the pair, which spreads both consecutive nodes under one key and
// consecutive keys under one node.
func (x *stateIndex) slot(node uint32, kid KeyID) uint64 {
	return (uint64(node)<<32 | uint64(kid)) * 0x9E3779B97F4A7C15 >> x.shift
}

// get returns the handle filed under (node, kid), or -1.
func (x *stateIndex) get(node uint32, kid KeyID) int32 {
	if len(x.tab) == 0 {
		return -1
	}
	mask := uint64(len(x.tab) - 1)
	for i := x.slot(node, kid); ; i = (i + 1) & mask {
		e := &x.tab[i]
		if e.h == 0 {
			return -1
		}
		if e.node == node && e.kid == kid {
			return e.h - 1
		}
	}
}

// put files handle h under (node, kid), which must be absent, doubling
// the table first when it would pass three quarters full.
func (x *stateIndex) put(node uint32, kid KeyID, h int32) {
	if 4*(x.n+1) > 3*len(x.tab) {
		old := x.tab
		x.tab = make([]indexEntry, max(4, 2*len(old)))
		x.shift = uint8(64 - bits.TrailingZeros(uint(len(x.tab))))
		x.n = 0
		for _, e := range old {
			if e.h != 0 {
				x.put(e.node, e.kid, e.h-1)
			}
		}
	}
	mask := uint64(len(x.tab) - 1)
	i := x.slot(node, kid)
	for x.tab[i].h != 0 {
		i = (i + 1) & mask
	}
	x.tab[i] = indexEntry{node, kid, h + 1}
	x.n++
}

// peek returns node id's bookkeeping for key kid, or nil when it has none:
// one indexed probe, no hashing of the key and no string compare. It reads
// nothing of the Node itself, so a caller that knows the id — the
// simulator's delivery — does not wait for the node's cache line first.
func (env *nodeEnv) peek(id overlay.NodeID, kid KeyID) *keyState {
	if h := env.index.get(uint32(id), kid); h >= 0 {
		return env.pool.at(h)
	}
	return nil
}

// peekKey is peek by the key itself: nil also for a key the owner never
// interned, and the intern table is left as it was.
func (n *Node) peekKey(k overlay.Key) *keyState {
	if kid, ok := n.env.keys.ids[k]; ok {
		return n.env.peek(n.id, kid)
	}
	return nil
}

// state returns (allocating if needed) the node's bookkeeping for key kid.
func (n *Node) state(kid KeyID) *keyState {
	if ks := n.env.peek(n.id, kid); ks != nil {
		return ks
	}
	return n.newState(kid)
}

// stateKey is state by the key itself, interned here: what a message that
// arrives naming its key — every message at a live peer — pays once.
func (n *Node) stateKey(k overlay.Key) *keyState { return n.state(n.env.keys.intern(k)) }

// newState allocates key kid's bookkeeping in the owner's slab, threads it
// onto the node's list and files it in the index.
func (n *Node) newState(kid KeyID) *keyState {
	h, ks := n.env.pool.alloc()
	*ks = keyState{
		kid:          kid,
		next:         n.head,
		watchReplica: -1,
		dist:         -1,
	}
	n.head = h
	n.env.index.put(uint32(n.id), kid, h)
	return ks
}

// eachState visits every key's bookkeeping at this node, most recently
// created first.
func (n *Node) eachState(fn func(*keyState)) {
	for h := n.head; h >= 0; {
		ks := n.env.pool.at(h)
		fn(ks)
		h = ks.next
	}
}
