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
	var es Set
	if len(es) != 0 || es.Fresh(0) != nil {
		t.Fatal("empty set claims entries")
	}
	es = es.With(entry("k", 0, 100))
	if es.Fresh(50) == nil {
		t.Fatal("HasFresh false before expiry")
	}
	if es.Fresh(150) != nil {
		t.Fatal("HasFresh true after expiry")
	}
	if len(es) != 1 {
		t.Fatal("stale entry not held")
	}
}

// NewSet is how a first-time update replaces a key's cached entries.
func TestReplaceKey(t *testing.T) {
	es := NewSet("k", []Entry{entry("k", 5, 400), entry("k", 2, 100), entry("k", 5, 500)})
	if len(es) != 2 || es[0].Replica != 2 || es[1].Replica != 5 || es[1].Expires != 500 {
		t.Fatalf("NewSet result: %v", es)
	}
	if NewSet("k", nil) != nil {
		t.Fatal("NewSet(nil) is not the empty set")
	}
}

func TestReplaceKeyRejectsForeignEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSet with foreign entry did not panic")
		}
	}()
	NewSet("k", []Entry{entry("wrong", 0, 10)})
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
	if len(s.Keys()) != 0 {
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
	if Set(nil).MaxExpiry() != 0 {
		t.Fatal("MaxExpiry of the empty set should be 0")
	}
	es := NewSet("k", []Entry{entry("k", 0, 100), entry("k", 1, 250), entry("k", 2, 175)})
	if got := es.MaxExpiry(); got != 250 {
		t.Fatalf("MaxExpiry = %v, want 250", got)
	}
}

func TestExpire(t *testing.T) {
	a := NewSet("a", []Entry{entry("a", 0, 100), entry("a", 1, 300)})
	b := NewSet("b", []Entry{entry("b", 0, 50)})
	a, na := a.Expire(200)
	b, nb := b.Expire(200)
	if na+nb != 2 {
		t.Fatalf("Expire dropped %d, want 2", na+nb)
	}
	if b != nil {
		t.Fatal("fully expired set still holds entries")
	}
	if a.Fresh(200) == nil {
		t.Fatal("fresh entry dropped by Expire")
	}
	if _, n := a.Expire(200); n != 0 {
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
		var all Set
		for i, e := range exps {
			all = all.With(entry("k", i, sim.Time(e)))
		}
		all, dropped := all.Expire(sim.Time(now))
		if len(all)+dropped != len(exps) {
			return false
		}
		fresh := all.Fresh(sim.Time(now))
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
		"Remove":      func(s *Store) { s.Remove("k", 1) },
		"RemoveKey":   func(s *Store) { s.RemoveKey("k") },
		"Expire":      func(s *Store) { s.byKey["k"], _ = s.byKey["k"].Expire(150) },
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
	// NewSet copies what it is given: the caller's slice stays its own.
	mine := []Entry{entry("j", 2, 50), entry("j", 1, 60)}
	set := NewSet("j", mine)
	mine[0].Expires = 1
	if got := set.Fresh(0); !reflect.DeepEqual(got, []Entry{entry("j", 1, 60), entry("j", 2, 50)}) {
		t.Errorf("NewSet aliased or mis-sorted its argument: %v", got)
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
