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

// Store holds index entries grouped by key as compact replica sets: one
// slice per key, sorted by replica, one entry per (key, replica). The
// replica-sorted representation makes every read deterministic without a
// per-call sort, and keeps the per-key footprint one small slice instead
// of a map — the difference between ~100 and ~350 bytes per touched key
// at million-node scale. The zero value is an empty, usable store (the
// struct-of-arrays node state keeps Stores by value and must not pay a
// map allocation per untouched node).
//
// Entry sets are immutable and copy-on-write: every mutation (Put,
// ReplaceKey, Remove, Expire) publishes a freshly built slice and never
// writes into one already published. That makes reads free — Fresh hands
// out the set itself when nothing in it has expired — and makes a view
// safe to ship in an update to another node or goroutine: nothing the
// owner does later can change it. Writes pay the copy; with CUP keeping
// caches fresh, reads outnumber them by two orders of magnitude.
type Store struct {
	byKey map[overlay.Key][]Entry
}

// NewStore returns an empty store. The map is allocated lazily on first
// Put, so constructing a store is free.
func NewStore() *Store {
	return &Store{}
}

// find returns the position of replica in the sorted set es, or the
// insertion point with ok=false.
func find(es []Entry, replica int) (int, bool) {
	i := sort.Search(len(es), func(i int) bool { return es[i].Replica >= replica })
	return i, i < len(es) && es[i].Replica == replica
}

// with returns a new set holding es plus e, replacing the entry for
// e.Replica when present. es is not written.
func with(es []Entry, e Entry) []Entry {
	i, ok := find(es, e.Replica)
	if ok {
		out := make([]Entry, len(es))
		copy(out, es)
		out[i] = e
		return out
	}
	out := make([]Entry, len(es)+1)
	copy(out, es[:i])
	out[i] = e
	copy(out[i+1:], es[i:])
	return out
}

// Put inserts or replaces the entry for (e.Key, e.Replica).
func (s *Store) Put(e Entry) {
	if s.byKey == nil {
		s.byKey = make(map[overlay.Key][]Entry)
	}
	s.byKey[e.Key] = with(s.byKey[e.Key], e)
}

// PutAll inserts every entry.
func (s *Store) PutAll(es []Entry) {
	for _, e := range es {
		s.Put(e)
	}
}

// ReplaceKey atomically replaces all entries for k with a copy of es (in
// any order; a later duplicate of a replica wins). Entries in es whose Key
// differs from k are rejected with a panic: a first-time update carrying
// foreign entries is a protocol bug.
func (s *Store) ReplaceKey(k overlay.Key, es []Entry) {
	if len(es) == 0 {
		delete(s.byKey, k)
		return
	}
	// out is private until published below, so it is built in place.
	out := make([]Entry, 0, len(es))
	for _, e := range es {
		if e.Key != k {
			panic(fmt.Sprintf("cache: ReplaceKey(%q) given entry for %q", k, e.Key))
		}
		i, ok := find(out, e.Replica)
		if !ok {
			out = append(out, Entry{})
			copy(out[i+1:], out[i:])
		}
		out[i] = e
	}
	if s.byKey == nil {
		s.byKey = make(map[overlay.Key][]Entry)
	}
	s.byKey[k] = out
}

// Remove deletes the entry for (k, replica) if present, reporting whether
// an entry was removed.
func (s *Store) Remove(k overlay.Key, replica int) bool {
	es := s.byKey[k]
	i, ok := find(es, replica)
	if !ok {
		return false
	}
	if len(es) == 1 {
		delete(s.byKey, k)
		return true
	}
	out := make([]Entry, len(es)-1)
	copy(out, es[:i])
	copy(out[i:], es[i+1:])
	s.byKey[k] = out
	return true
}

// RemoveKey deletes every entry for k, returning how many were removed.
func (s *Store) RemoveKey(k overlay.Key) int {
	n := len(s.byKey[k])
	delete(s.byKey, k)
	return n
}

// Get returns the entry for (k, replica).
func (s *Store) Get(k overlay.Key, replica int) (Entry, bool) {
	es := s.byKey[k]
	if i, ok := find(es, replica); ok {
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

// Fresh returns the fresh entries for k at time now, sorted by replica.
// When every entry is fresh — the common case wherever updates keep the
// cache maintained — the result is a capacity-clipped view of the store's
// own immutable set: no copy, and appending to it reallocates rather than
// writing into the store. Callers must not write to its elements.
//
//cup:hotpath
func (s *Store) Fresh(k overlay.Key, now sim.Time) []Entry {
	es := s.byKey[k]
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
	out := make([]Entry, 0, n) //cup:allowalloc
	for i := range es {
		if es[i].Fresh(now) {
			out = append(out, es[i]) //cup:allowalloc (never grows: sized above)
		}
	}
	return out
}

// HasFresh reports whether any entry for k is fresh at now.
func (s *Store) HasFresh(k overlay.Key, now sim.Time) bool {
	for _, e := range s.byKey[k] {
		if e.Fresh(now) {
			return true
		}
	}
	return false
}

// HasAny reports whether the store holds any entry (fresh or stale) for k.
// Used to distinguish freshness misses from first-time misses.
func (s *Store) HasAny(k overlay.Key) bool { return len(s.byKey[k]) > 0 }

// MaxExpiry returns the latest expiration among entries for k, or zero
// time when none exist.
func (s *Store) MaxExpiry(k overlay.Key) sim.Time {
	var max sim.Time
	for _, e := range s.byKey[k] {
		if e.Expires > max {
			max = e.Expires
		}
	}
	return max
}

// Expire removes every entry that is stale at now across all keys and
// returns how many were dropped. Nodes call this opportunistically; the
// protocol never relies on it because freshness is checked per access.
func (s *Store) Expire(now sim.Time) int {
	dropped := 0
	for k, es := range s.byKey {
		stale := 0
		for i := range es {
			if !es[i].Fresh(now) {
				stale++
			}
		}
		if stale == 0 {
			continue
		}
		dropped += stale
		if stale == len(es) {
			delete(s.byKey, k)
			continue
		}
		keep := make([]Entry, 0, len(es)-stale)
		for _, e := range es {
			if e.Fresh(now) {
				keep = append(keep, e)
			}
		}
		s.byKey[k] = keep
	}
	return dropped
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
