package live

import (
	"math"
	"sync"
	"sync/atomic"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// hitView is one live peer's published answer to "what would a local
// client asking for k get right now?" — for every key a local client
// has asked this peer for and that still has fresh entries. §2.5 case 1
// makes that answer a store read; the view lets Lookup do the read from
// the caller's goroutine, without taking the peer's lock.
//
// Ownership: only the holder of the peer's lock writes — a delivery, a
// missing lookup or a control call, on whichever goroutine brought it.
// After anything that can change a key's client answer — an update
// handled, a local client answered, the local directory installed into
// or removed from, churn hand-over or retirement, a flush of expired
// entries — it republishes that key (publish), and before any handler or
// control callback can read the key's popularity or justification state
// it folds the hits readers took in the meantime into the node (credit). Readers only
// load: a slot is immutable once published except for its two counters,
// and its entries are one of cache.Store's copy-on-write sets.
//
// slots maps a key to its open slot and holds no other: a slot leaves
// the map (replaced or deleted) when it is closed, so a reader that
// loaded it just before is either counted by the closing drain or sent
// to the lock.
type hitView struct {
	slots sync.Map // overlay.Key → *hitSlot

	// Writer-side state, touched by the holder of the peer's lock alone.
	node *cup.Node
	now  func() sim.Time
}

// hitSlot is one key's published answer. The view answers from it while
// now < expires, the earliest expiry among entries: past that a query
// under the lock would filter the set, so the reader takes the lock.
type hitSlot struct {
	key     overlay.Key
	entries []cache.Entry
	expires sim.Time
	// hits counts the reads served since the last credit; slotClosed is
	// set, once and for good, when the writer retires the slot, and a
	// reader whose increment lands on a closed slot was not counted and
	// takes the lock instead.
	hits atomic.Uint64
	// first is the time of the earliest of those reads (float64 bits;
	// zero: none yet) — what §3.1 compares against an update's deadline.
	first atomic.Uint64
}

const slotClosed = 1 << 63

// read returns key's published entries when all of them are still fresh
// at now, counting the hit, and nil otherwise. Safe from any goroutine.
func (v *hitView) read(key overlay.Key, now sim.Time) []cache.Entry {
	s := v.slot(key)
	if s == nil || now >= s.expires || s.hits.Add(1) >= slotClosed {
		return nil
	}
	if s.first.Load() == 0 {
		s.first.CompareAndSwap(0, math.Float64bits(float64(now)))
	}
	return s.entries
}

// slot returns key's open slot, or nil.
func (v *hitView) slot(key overlay.Key) *hitSlot {
	s, _ := v.slots.Load(key)
	hs, _ := s.(*hitSlot)
	return hs
}

// drain folds s's uncredited hits into the node, leaving mark (zero, or
// slotClosed to retire the slot) behind. first is taken before hits: a
// reader between the two is counted now and dated in the next round,
// never counted twice or dropped.
func (v *hitView) drain(s *hitSlot, mark uint64) {
	first := s.first.Swap(0)
	hits := s.hits.Swap(mark) &^ slotClosed
	if hits == 0 {
		return
	}
	at := sim.Time(math.Float64frombits(first))
	if first == 0 {
		at = v.now()
	}
	v.node.CreditClientHits(s.key, int(hits), at)
}

// credit folds key's uncredited hits into the node's popularity and
// justification state. The lock's holder calls it before a handler for
// key runs.
func (v *hitView) credit(key overlay.Key) {
	if s := v.slot(key); s != nil {
		v.drain(s, 0)
	}
}

// publish brings key's slot in line with the node's current client
// answer: replaced when the answer changed, retired when there is none.
// Only a local client's answer creates a slot (create); everything else
// refreshes the slots that exist, so the view never holds a key the
// store does not.
func (v *hitView) publish(key overlay.Key, create bool) {
	old := v.slot(key)
	if old == nil && !create {
		return
	}
	es := v.node.ClientAnswer(key)
	if old != nil && len(es) == len(old.entries) && len(es) > 0 && &es[0] == &old.entries[0] {
		return // the same immutable set: nothing a reader could tell apart
	}
	// The new slot goes in before the old one closes, so a key with an
	// answer is never without a slot; a reader still holding the old one
	// is either counted by the drain below or sent to the lock.
	if len(es) > 0 {
		v.slots.Store(key, &hitSlot{key: key, entries: es, expires: earliest(es)})
	} else if old != nil {
		v.slots.Delete(key)
	}
	if old != nil {
		v.drain(old, slotClosed)
	}
}

func earliest(es []cache.Entry) sim.Time {
	min := es[0].Expires
	for _, e := range es[1:] {
		if e.Expires < min {
			min = e.Expires
		}
	}
	return min
}

// each visits the open slots.
func (v *hitView) each(fn func(*hitSlot)) {
	v.slots.Range(func(_, s any) bool {
		fn(s.(*hitSlot))
		return true
	})
}

// creditAll and publishAll are credit and publish over every slot, for
// control callbacks whose reach is not one key (Inspect, churn
// hand-over, a flush): cost proportional to the slots, paid by the rare
// caller, not by the query path.
func (v *hitView) creditAll() {
	v.each(func(s *hitSlot) { v.drain(s, 0) })
}

func (v *hitView) publishAll() {
	v.each(func(s *hitSlot) { v.publish(s.key, false) })
}

// retire closes every slot, crediting what it held: the peer is
// departing and its lookups fail from here on.
func (v *hitView) retire() {
	v.each(func(s *hitSlot) {
		v.slots.Delete(s.key)
		v.drain(s, slotClosed)
	})
}
