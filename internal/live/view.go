package live

import (
	"hash/maphash"
	"math"
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
// The table is open-addressed with linear probing and holds at most one
// position per key. A slot is never unlinked, only closed in place and
// later overwritten by the same key's next slot, so a probe chain never
// breaks under a reader; a rebuild, which drops the closed slots of
// other keys, publishes a new table.
type hitView struct {
	table atomic.Pointer[viewTable]

	// Writer-side state, touched by the holder of the peer's lock alone.
	node *cup.Node
	now  func() sim.Time
	open int // slots a reader can hit
	used int // non-nil positions of the current table, open or closed
}

type viewTable struct {
	slots []atomic.Pointer[hitSlot] // length a power of two, never more than half used
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

// viewSeed keys the table's string hash for this process.
var viewSeed = maphash.MakeSeed()

func (t *viewTable) start(key overlay.Key) uint64 {
	return maphash.String(viewSeed, string(key)) & uint64(len(t.slots)-1)
}

// read returns key's published entries when all of them are still fresh
// at now, counting the hit, and nil otherwise. Safe from any goroutine.
func (v *hitView) read(key overlay.Key, now sim.Time) []cache.Entry {
	t := v.table.Load()
	if t == nil {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.start(key); ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == nil {
			return nil
		}
		if s.key != key {
			continue
		}
		if now >= s.expires || s.hits.Add(1) >= slotClosed {
			return nil
		}
		if s.first.Load() == 0 {
			s.first.CompareAndSwap(0, math.Float64bits(float64(now)))
		}
		return s.entries
	}
}

// find returns the position holding key's slot (open or closed), or -1
// and the empty position its probe chain ends at.
func (t *viewTable) find(key overlay.Key) (at, free int) {
	mask := uint64(len(t.slots) - 1)
	for i := t.start(key); ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == nil {
			return -1, int(i)
		}
		if s.key == key {
			return int(i), -1
		}
	}
}

// slot returns key's open slot, or nil.
func (v *hitView) slot(key overlay.Key) *hitSlot {
	t := v.table.Load()
	if t == nil {
		return nil
	}
	if at, _ := t.find(key); at >= 0 {
		if s := t.slots[at].Load(); s.hits.Load() < slotClosed {
			return s
		}
	}
	return nil
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
		v.install(&hitSlot{key: key, entries: es, expires: earliest(es)})
	}
	if old != nil {
		v.drain(old, slotClosed)
		v.open--
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

// install stores s at its key's position. The key's own position, open
// or closed, is reused; only a key new to the table takes a fresh one,
// after a rebuild if that would fill the table past half.
func (v *hitView) install(s *hitSlot) {
	t := v.table.Load()
	at := -1
	if t != nil {
		at, _ = t.find(s.key)
	}
	if at < 0 {
		if t == nil || 2*(v.used+1) > len(t.slots) {
			t = v.rebuild(t)
		}
		_, at = t.find(s.key)
		v.used++
	}
	t.slots[at].Store(s)
	v.open++
}

// rebuild publishes a table with room for the open slots of old four
// times over, carrying those and dropping the closed ones.
func (v *hitView) rebuild(old *viewTable) *viewTable {
	size := 8
	for size < 4*(v.open+1) {
		size *= 2
	}
	t := &viewTable{slots: make([]atomic.Pointer[hitSlot], size)}
	v.used = 0
	v.each(old, func(s *hitSlot) {
		_, free := t.find(s.key)
		t.slots[free].Store(s)
		v.used++
	})
	v.table.Store(t)
	return t
}

// each visits the open slots of t.
func (v *hitView) each(t *viewTable, fn func(*hitSlot)) {
	if t == nil {
		return
	}
	for i := range t.slots {
		if s := t.slots[i].Load(); s != nil && s.hits.Load() < slotClosed {
			fn(s)
		}
	}
}

// creditAll and publishAll are credit and publish over every slot, for
// control callbacks whose reach is not one key (Inspect, churn
// hand-over, a flush): cost proportional to the slots, paid by the rare
// caller, not by the query path.
func (v *hitView) creditAll() {
	v.each(v.table.Load(), func(s *hitSlot) { v.drain(s, 0) })
}

func (v *hitView) publishAll() {
	v.each(v.table.Load(), func(s *hitSlot) { v.publish(s.key, false) })
}

// retire closes every slot, crediting what it held: the peer is
// departing and its lookups fail from here on.
func (v *hitView) retire() {
	v.each(v.table.Load(), func(s *hitSlot) { v.drain(s, slotClosed) })
	v.open = 0
}
