// Package cache implements the TTL index-entry store used by every CUP
// node: both the cached index entries collected while passing queries and
// updates (§2.1 "Cached index entries") and the authority node's local
// index directory (§2.1 "Local index directory").
//
// An index entry is a (key, value) pair whose value points at a replica
// serving the content. Each entry carries an absolute expiration time
// (the paper's lifetime + timestamp collapsed into one instant); an entry
// is fresh until it expires and must not answer queries afterwards.
package cache

import (
	"fmt"
	"slices"
	"sort"

	"cup/internal/overlay"
	"cup/internal/sim"
)

// Entry is one index entry: key K is served by replica Replica at address
// Addr until Expires.
type Entry struct {
	Key     overlay.Key
	Replica int
	Addr    string
	Expires sim.Time
}

// Fresh reports whether the entry can still answer queries at time now.
func (e Entry) Fresh(now sim.Time) bool { return e.Expires > now }

// String implements fmt.Stringer.
func (e Entry) String() string {
	return fmt.Sprintf("%s@replica%d(%s, exp %.2f)", e.Key, e.Replica, e.Addr, float64(e.Expires))
}

// Set is the entry set of one key: sorted by replica, one entry per
// replica. The replica-sorted representation makes every read
// deterministic without a per-call sort and keeps the per-key footprint
// one small slice.
//
// A set is immutable once shipped. Reads are free — Fresh hands out the
// set itself when nothing in it has expired — and a view handed to
// another node or goroutine is safe only if nothing the owner does later
// can change it. So there are two kinds of write:
//
//   - Copy-on-write (With, Without, Expire, NewSet) builds a fresh slice
//     and never writes into its receiver. Store, the authority's
//     directory, writes only this way.
//   - In place (Put, Delete) edits the receiver's array. Only the set's
//     owner may use them, and only while no view of the set has left it;
//     an owner that has shipped one copies the set once (Clone) first.
//     internal/cup marks a key's set shipped wherever a view leaves the
//     node, so a refresh reaching a cache whose set nobody holds costs no
//     allocation.
//
// A node's cached entries are a Set on the key's state (internal/cup);
// Store keeps one Set per key for the authority's local directory. Both
// run this one copy of the algebra. The nil Set is empty and usable.
type Set []Entry

// NewSet returns a set holding a copy of es (in any order; a later
// duplicate of a replica wins), nil when es is empty. Entries whose Key
// differs from k are rejected with a panic: a first-time update carrying
// foreign entries is a protocol bug.
func NewSet(k overlay.Key, es []Entry) Set {
	if len(es) == 0 {
		return nil
	}
	// out is private until returned, so it is built in place.
	out := make(Set, 0, len(es))
	for _, e := range es {
		if e.Key != k {
			panic(fmt.Sprintf("cache: set for %q given entry for %q", k, e.Key))
		}
		out = out.Put(e)
	}
	return out
}

// Clone returns a copy of es that shares no memory with it.
func (es Set) Clone() Set { return slices.Clone(es) }

// Put sets e in es in place, replacing the entry for e.Replica or
// inserting it, and returns the set (reallocated only when an insert
// outgrows the array). See the type's doc for who may call it.
func (es Set) Put(e Entry) Set {
	i, ok := es.find(e.Replica)
	if !ok {
		es = append(es, Entry{})
		copy(es[i+1:], es[i:])
	}
	es[i] = e
	return es
}

// Delete removes replica's entry from es in place and returns the set.
// See the type's doc for who may call it.
func (es Set) Delete(replica int) Set {
	i, ok := es.find(replica)
	if !ok {
		return es
	}
	out := append(es[:i], es[i+1:]...)
	es[len(es)-1] = Entry{} // the vacated slot must not pin its strings
	return out
}

// find returns the position of replica in the set, or the insertion point
// with ok=false.
func (es Set) find(replica int) (int, bool) {
	i := sort.Search(len(es), func(i int) bool { return es[i].Replica >= replica })
	return i, i < len(es) && es[i].Replica == replica
}

// With returns a new set holding es plus e, replacing the entry for
// e.Replica when present.
func (es Set) With(e Entry) Set {
	out := make(Set, len(es), len(es)+1)
	copy(out, es)
	return out.Put(e)
}

// Without returns the set minus replica's entry (nil when that was the
// last one) and whether an entry was removed; when none was, the set
// itself.
func (es Set) Without(replica int) (Set, bool) {
	i, ok := es.find(replica)
	if !ok {
		return es, false
	}
	if len(es) == 1 {
		return nil, true
	}
	out := make(Set, len(es)-1)
	copy(out, es[:i])
	copy(out[i:], es[i+1:])
	return out, true
}

// Fresh returns the entries still fresh at now, sorted by replica, nil
// when there are none. When every entry is fresh — the common case
// wherever updates keep the cache maintained — the result is a
// capacity-clipped view of the set itself: no copy, and
// appending to it reallocates rather than writing into the set. Callers
// must not write to its elements.
func (es Set) Fresh(now sim.Time) []Entry {
	n := 0
	for i := range es {
		if es[i].Fresh(now) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n == len(es) {
		return es[:n:n]
	}
	// Some entries expired without a refresh reaching us: the cold case.
	out := make([]Entry, 0, n)
	for i := range es {
		if es[i].Fresh(now) {
			out = append(out, es[i]) // never grows: sized above
		}
	}
	return out
}

// MaxExpiry returns the latest expiration in the set, or zero time when
// it is empty.
func (es Set) MaxExpiry() sim.Time {
	var max sim.Time
	for i := range es {
		if es[i].Expires > max {
			max = es[i].Expires
		}
	}
	return max
}

// Expire returns the set minus the entries stale at now — the set itself
// when nothing was, nil when everything was — and how many were dropped.
func (es Set) Expire(now sim.Time) (Set, int) {
	fresh := es.Fresh(now)
	return fresh, len(es) - len(fresh)
}

// Store holds one Set per key: the authority's local index directory, and
// what a departing node hands over (Take). The zero value is an empty,
// usable store — nodes keep theirs by value and must not pay a map
// allocation before the first Put.
type Store struct {
	byKey map[overlay.Key]Set
}

// NewStore returns an empty store. The map is allocated lazily on first
// Put, so constructing a store is free.
func NewStore() *Store {
	return &Store{}
}

// Put inserts or replaces the entry for (e.Key, e.Replica).
func (s *Store) Put(e Entry) {
	if s.byKey == nil {
		s.byKey = make(map[overlay.Key]Set)
	}
	s.byKey[e.Key] = s.byKey[e.Key].With(e)
}

// Remove deletes the entry for (k, replica) if present, reporting whether
// an entry was removed.
func (s *Store) Remove(k overlay.Key, replica int) bool {
	es, ok := s.byKey[k].Without(replica)
	switch {
	case !ok:
		return false
	case es == nil:
		delete(s.byKey, k)
	default:
		s.byKey[k] = es
	}
	return true
}

// RemoveKey deletes every entry for k, returning how many were removed.
func (s *Store) RemoveKey(k overlay.Key) int {
	n := len(s.byKey[k])
	delete(s.byKey, k)
	return n
}

// Take moves every entry into a new store and leaves s empty.
func (s *Store) Take() *Store {
	t := &Store{byKey: s.byKey}
	s.byKey = nil
	return t
}

// Get returns the entry for (k, replica).
func (s *Store) Get(k overlay.Key, replica int) (Entry, bool) {
	es := s.byKey[k]
	if i, ok := es.find(replica); ok {
		return es[i], true
	}
	return Entry{}, false
}

// All returns every entry for k (fresh or stale), sorted by replica for
// deterministic iteration. The slice is freshly allocated: unlike a Fresh
// view, callers may write to it.
func (s *Store) All(k overlay.Key) []Entry {
	es := s.byKey[k]
	if len(es) == 0 {
		return nil
	}
	out := make([]Entry, len(es))
	copy(out, es)
	return out
}

// Fresh returns the fresh entries for k at time now: Set.Fresh of k's set.
func (s *Store) Fresh(k overlay.Key, now sim.Time) []Entry {
	return s.byKey[k].Fresh(now)
}

// Len returns the total number of entries.
func (s *Store) Len() int {
	n := 0
	for _, es := range s.byKey {
		n += len(es)
	}
	return n
}

// Keys returns all keys with at least one entry, sorted.
func (s *Store) Keys() []overlay.Key {
	out := make([]overlay.Key, 0, len(s.byKey))
	for k := range s.byKey {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
