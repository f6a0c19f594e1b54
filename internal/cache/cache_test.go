package cache

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"cup/internal/overlay"
	"cup/internal/sim"
)

func entry(k string, r int, exp sim.Time) Entry {
	return Entry{Key: overlay.Key(k), Replica: r, Addr: fmt.Sprintf("10.0.0.%d", r), Expires: exp}
}

func TestFreshness(t *testing.T) {
	e := entry("k", 0, 100)
	if !e.Fresh(99) {
		t.Fatal("entry should be fresh before expiry")
	}
	if e.Fresh(100) {
		t.Fatal("entry should be stale exactly at expiry")
	}
	if e.Fresh(101) {
		t.Fatal("entry should be stale after expiry")
	}
}

func TestPutGet(t *testing.T) {
	s := NewStore()
	s.Put(entry("k", 0, 100))
	got, ok := s.Get("k", 0)
	if !ok || got.Expires != 100 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := s.Get("k", 1); ok {
		t.Fatal("Get of absent replica returned ok")
	}
	if _, ok := s.Get("other", 0); ok {
		t.Fatal("Get of absent key returned ok")
	}
}

func TestPutReplaces(t *testing.T) {
	s := NewStore()
	s.Put(entry("k", 0, 100))
	s.Put(entry("k", 0, 200))
	got, _ := s.Get("k", 0)
	if got.Expires != 200 {
		t.Fatalf("Put did not replace: %v", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestFreshSortedAndFiltered(t *testing.T) {
	s := NewStore()
	s.Put(entry("k", 2, 300))
	s.Put(entry("k", 0, 50)) // stale at t=100
	s.Put(entry("k", 1, 300))
	fresh := s.Fresh("k", 100)
	if len(fresh) != 2 {
		t.Fatalf("Fresh returned %d entries, want 2", len(fresh))
	}
	if fresh[0].Replica != 1 || fresh[1].Replica != 2 {
		t.Fatalf("Fresh not sorted by replica: %v", fresh)
	}
	if s.Fresh("k", 500) != nil {
		t.Fatal("Fresh after all expiries should be nil")
	}
	if s.Fresh("absent", 0) != nil {
		t.Fatal("Fresh of absent key should be nil")
	}
}

func TestHasFreshHasAny(t *testing.T) {
	s := NewStore()
	if s.HasAny("k") || s.HasFresh("k", 0) {
		t.Fatal("empty store claims entries")
	}
	s.Put(entry("k", 0, 100))
	if !s.HasFresh("k", 50) {
		t.Fatal("HasFresh false before expiry")
	}
	if s.HasFresh("k", 150) {
		t.Fatal("HasFresh true after expiry")
	}
	if !s.HasAny("k") {
		t.Fatal("HasAny false for stale entry")
	}
}

func TestReplaceKey(t *testing.T) {
	s := NewStore()
	s.Put(entry("k", 0, 100))
	s.Put(entry("k", 1, 100))
	s.Put(entry("other", 0, 100))
	s.ReplaceKey("k", []Entry{entry("k", 5, 400)})
	all := s.All("k")
	if len(all) != 1 || all[0].Replica != 5 {
		t.Fatalf("ReplaceKey result: %v", all)
	}
	if !s.HasAny("other") {
		t.Fatal("ReplaceKey touched another key")
	}
	s.ReplaceKey("k", nil)
	if s.HasAny("k") {
		t.Fatal("ReplaceKey(nil) did not clear")
	}
}

func TestReplaceKeyRejectsForeignEntries(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Error("ReplaceKey with foreign entry did not panic")
		}
	}()
	s.ReplaceKey("k", []Entry{entry("wrong", 0, 10)})
}

func TestRemove(t *testing.T) {
	s := NewStore()
	s.Put(entry("k", 0, 100))
	s.Put(entry("k", 1, 100))
	if !s.Remove("k", 0) {
		t.Fatal("Remove of present entry returned false")
	}
	if s.Remove("k", 0) {
		t.Fatal("second Remove returned true")
	}
	if s.Remove("absent", 0) {
		t.Fatal("Remove of absent key returned true")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if !s.Remove("k", 1) {
		t.Fatal("Remove of last entry returned false")
	}
	if s.HasAny("k") {
		t.Fatal("key survives after removing all replicas")
	}
}

func TestRemoveKey(t *testing.T) {
	s := NewStore()
	s.Put(entry("k", 0, 100))
	s.Put(entry("k", 1, 100))
	if n := s.RemoveKey("k"); n != 2 {
		t.Fatalf("RemoveKey = %d, want 2", n)
	}
	if n := s.RemoveKey("k"); n != 0 {
		t.Fatalf("second RemoveKey = %d, want 0", n)
	}
}

func TestMaxExpiry(t *testing.T) {
	s := NewStore()
	if s.MaxExpiry("k") != 0 {
		t.Fatal("MaxExpiry of absent key should be 0")
	}
	s.Put(entry("k", 0, 100))
	s.Put(entry("k", 1, 250))
	s.Put(entry("k", 2, 175))
	if got := s.MaxExpiry("k"); got != 250 {
		t.Fatalf("MaxExpiry = %v, want 250", got)
	}
}

func TestExpire(t *testing.T) {
	s := NewStore()
	s.Put(entry("a", 0, 100))
	s.Put(entry("a", 1, 300))
	s.Put(entry("b", 0, 50))
	if n := s.Expire(200); n != 2 {
		t.Fatalf("Expire dropped %d, want 2", n)
	}
	if s.HasAny("b") {
		t.Fatal("fully expired key still present")
	}
	if !s.HasFresh("a", 200) {
		t.Fatal("fresh entry dropped by Expire")
	}
	if n := s.Expire(200); n != 0 {
		t.Fatalf("second Expire dropped %d, want 0", n)
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"zebra", "alpha", "mid"} {
		s.Put(entry(k, 0, 100))
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "alpha" || keys[1] != "mid" || keys[2] != "zebra" {
		t.Fatalf("Keys = %v", keys)
	}
}

// Property: Len equals the number of distinct (key, replica) pairs put.
func TestPropertyLenMatchesDistinctPairs(t *testing.T) {
	f := func(pairs []struct {
		K uint8
		R uint8
	}) bool {
		s := NewStore()
		distinct := make(map[[2]uint8]bool)
		for _, p := range pairs {
			s.Put(entry(fmt.Sprintf("k%d", p.K), int(p.R), 100))
			distinct[[2]uint8{p.K, p.R}] = true
		}
		return s.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after Expire(now), every remaining entry is fresh at now and
// Fresh() == All().
func TestPropertyExpireLeavesOnlyFresh(t *testing.T) {
	f := func(exps []uint16, now uint16) bool {
		s := NewStore()
		for i, e := range exps {
			s.Put(entry("k", i, sim.Time(e)))
		}
		s.Expire(sim.Time(now))
		all := s.All("k")
		fresh := s.Fresh("k", sim.Time(now))
		if len(all) != len(fresh) {
			return false
		}
		for _, e := range all {
			if !e.Fresh(sim.Time(now)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryString(t *testing.T) {
	e := entry("k", 3, 12.5)
	if e.String() == "" {
		t.Fatal("empty String()")
	}
}

// Entry sets are copy-on-write: a Fresh view taken before any mutation
// still reads exactly as it did when taken, and a view is capacity-clipped
// so appending to it cannot write into the store.
func TestFreshViewIsImmutable(t *testing.T) {
	seed := func() *Store {
		s := NewStore()
		s.Put(entry("k", 1, 100))
		s.Put(entry("k", 3, 200))
		return s
	}
	want := []Entry{entry("k", 1, 100), entry("k", 3, 200)}
	for name, mutate := range map[string]func(*Store){
		"Put replace": func(s *Store) { s.Put(entry("k", 1, 999)) },
		"Put insert":  func(s *Store) { s.Put(entry("k", 2, 999)) },
		"PutAll":      func(s *Store) { s.PutAll([]Entry{entry("k", 0, 999), entry("k", 3, 999)}) },
		"Remove":      func(s *Store) { s.Remove("k", 1) },
		"RemoveKey":   func(s *Store) { s.RemoveKey("k") },
		"Expire":      func(s *Store) { s.Expire(150) },
		"ReplaceKey":  func(s *Store) { s.ReplaceKey("k", []Entry{entry("k", 7, 999)}) },
	} {
		s := seed()
		view := s.Fresh("k", 0)
		if !reflect.DeepEqual(view, want) {
			t.Fatalf("%s: view before = %v", name, view)
		}
		mutate(s)
		if !reflect.DeepEqual(view, want) {
			t.Errorf("%s changed a view taken before it: %v", name, view)
		}
	}

	s := seed()
	view := s.Fresh("k", 0)
	if cap(view) != len(view) {
		t.Fatalf("view has spare capacity %d > len %d", cap(view), len(view))
	}
	_ = append(view, entry("k", 9, 999))
	if got := s.Fresh("k", 0); !reflect.DeepEqual(got, want) {
		t.Errorf("appending to a view wrote into the store: %v", got)
	}
	// ReplaceKey copies what it is given: the caller's slice stays its own.
	mine := []Entry{entry("j", 2, 50), entry("j", 1, 60)}
	s.ReplaceKey("j", mine)
	mine[0].Expires = 1
	if got := s.Fresh("j", 0); !reflect.DeepEqual(got, []Entry{entry("j", 1, 60), entry("j", 2, 50)}) {
		t.Errorf("ReplaceKey aliased or mis-sorted its argument: %v", got)
	}
}

// A fully fresh set is served as a view, without allocating.
func TestFreshAllFreshAllocatesNothing(t *testing.T) {
	s := NewStore()
	s.Put(entry("k", 1, 100))
	s.Put(entry("k", 2, 100))
	if allocs := testing.AllocsPerRun(1000, func() { s.Fresh("k", 10) }); allocs != 0 {
		t.Errorf("Fresh on an all-fresh set allocates %.1f, want 0", allocs)
	}
}
