package policy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// keep binds p to one key's counter, fresh: what a node holding the key
// asks on each triggering update.
func keep(p Policy) func(queries, dist int) bool {
	var idle int32
	return func(q, d int) bool { return p.Keep(q, d, &idle) }
}

func TestAlwaysKeep(t *testing.T) {
	p := keep(AlwaysKeep())
	for d := 0; d < 50; d++ {
		if !p(0, d) {
			t.Fatalf("AlwaysKeep cut at dist %d", d)
		}
	}
}

func TestNeverKeep(t *testing.T) {
	if keep(NeverKeep())(1000, 1) {
		t.Fatal("NeverKeep kept")
	}
}

func TestPushLevel(t *testing.T) {
	p := keep(PushLevel(5))
	for d := 0; d <= 5; d++ {
		if !p(0, d) {
			t.Fatalf("PushLevel(5) cut at dist %d", d)
		}
	}
	for d := 6; d < 20; d++ {
		if p(100, d) {
			t.Fatalf("PushLevel(5) kept at dist %d", d)
		}
	}
}

func TestLinearThreshold(t *testing.T) {
	p := keep(Linear(0.5))
	// At distance 10, threshold is 5 queries.
	if p(4, 10) {
		t.Fatal("kept below threshold")
	}
	if !p(5, 10) {
		t.Fatal("cut at threshold")
	}
	if !p(6, 10) {
		t.Fatal("cut above threshold")
	}
}

func TestLinearZeroAlphaAlwaysKeeps(t *testing.T) {
	if !keep(Linear(0))(0, 100) {
		t.Fatal("Linear(0) cut")
	}
}

func TestLinearNegativeAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Linear(-1) did not panic")
		}
	}()
	Linear(-1)
}

func TestLogarithmicThreshold(t *testing.T) {
	p := keep(Logarithmic(2))
	// At distance 4, threshold is 2*log2(4) = 4 queries.
	if p(3, 4) {
		t.Fatal("kept below threshold")
	}
	if !p(4, 4) {
		t.Fatal("cut at threshold")
	}
	// At distance 1, log2(1)=0 so always keep.
	if !p(0, 1) {
		t.Fatal("cut at distance 1")
	}
	// Distance 0 (authority itself) always keeps.
	if !p(0, 0) {
		t.Fatal("cut at distance 0")
	}
}

func TestLogarithmicMoreLenientThanLinear(t *testing.T) {
	// The paper notes the log threshold grows slower than the linear one,
	// so for equal α and D ≥ 2 whenever log cuts, linear must cut too.
	lin := Linear(0.5)
	log := Logarithmic(0.5)
	f := func(qRaw, dRaw uint8) bool {
		q, d := int(qRaw), int(dRaw%60)+2
		li, lo := keep(lin)(q, d), keep(log)(q, d)
		return !(!lo && li) || lo == li // log cut ⇒ linear cut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondChanceGivesOneGrace(t *testing.T) {
	p := keep(SecondChance())
	if !p(0, 5) {
		t.Fatal("cut on first idle update (no second chance)")
	}
	if p(0, 5) {
		t.Fatal("kept on second consecutive idle update")
	}
}

func TestSecondChanceResetsOnQueries(t *testing.T) {
	p := keep(SecondChance())
	if !p(0, 5) {
		t.Fatal("cut on first idle")
	}
	if !p(3, 5) {
		t.Fatal("cut despite queries")
	}
	// Streak was reset; one idle update is tolerated again.
	if !p(0, 5) {
		t.Fatal("cut on first idle after reset")
	}
	if p(0, 5) {
		t.Fatal("kept on second idle after reset")
	}
}

func TestSecondChanceIgnoresDistance(t *testing.T) {
	a, b := keep(SecondChance()), keep(SecondChance())
	for i := 0; i < 5; i++ {
		if a(1, 1) != b(1, 1000) {
			t.Fatal("second-chance decision depended on distance")
		}
	}
}

// Two keys under one policy count their idle updates apart: the count
// lives in the key's counter, not in the policy.
func TestSecondChanceInstancesIndependent(t *testing.T) {
	pol := SecondChance()
	var a, b int32
	pol.Keep(0, 1, &a) // a has one idle
	if !pol.Keep(0, 1, &b) {
		t.Fatal("key b inherited key a's idle streak")
	}
	if a != 1 || b != 1 {
		t.Fatalf("idle counters a = %d, b = %d, want 1 and 1", a, b)
	}
}

func TestWindowedIdle(t *testing.T) {
	p := keep(WindowedIdle(3))
	if !p(0, 1) || !p(0, 1) {
		t.Fatal("cut before window exhausted")
	}
	if p(0, 1) {
		t.Fatal("kept after 3 consecutive idle updates")
	}
}

func TestWindowedIdleOneIsImmediate(t *testing.T) {
	if keep(WindowedIdle(1))(0, 1) {
		t.Fatal("WindowedIdle(1) tolerated an idle update")
	}
}

func TestWindowedIdleInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WindowedIdle(0) did not panic")
		}
	}()
	WindowedIdle(0)
}

func TestNames(t *testing.T) {
	cases := map[string]Policy{
		"always":           AlwaysKeep(),
		"never":            NeverKeep(),
		"second-chance":    SecondChance(),
		"push-level(7)":    PushLevel(7),
		"linear(α=0.25)":   Linear(0.25),
		"log(α=0.1)":       Logarithmic(0.1),
		"windowed-idle(4)": WindowedIdle(4),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

// Property: popularity monotonicity — for every policy, if Keep(q, d) is
// true then Keep(q', d) with q' > q is also true for a fresh key.
func TestPropertyMonotoneInPopularity(t *testing.T) {
	policies := []Policy{AlwaysKeep(), NeverKeep(), PushLevel(5), Linear(0.3), Logarithmic(0.4), SecondChance(), WindowedIdle(2)}
	f := func(qRaw uint8, dRaw uint8) bool {
		q, d := int(qRaw), int(dRaw)
		for _, p := range policies {
			if keep(p)(q, d) && !keep(p)(q+1, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A stateless policy decides from (queries, dist) alone: it neither reads
// nor writes the key's counter, and a decision allocates nothing.
func TestStatelessKeepIgnoresCounter(t *testing.T) {
	for _, p := range []Policy{AlwaysKeep(), NeverKeep(), PushLevel(3), Linear(0.5), Logarithmic(0.5)} {
		for _, idle := range []int32{0, 1, 7, -3} {
			for d := 0; d < 8; d++ {
				for q := 0; q < 4; q++ {
					c, zero := idle, int32(0)
					if p.Keep(q, d, &c) != p.Keep(q, d, &zero) || c != idle || zero != 0 {
						t.Fatalf("%s: Keep(%d, %d) depends on or moves the counter (%d → %d)", p.Name(), q, d, idle, c)
					}
				}
			}
		}
		var idle int32
		if allocs := testing.AllocsPerRun(100, func() { p.Keep(0, 1, &idle) }); allocs != 0 {
			t.Errorf("%s: Keep allocates %v objects, want 0", p.Name(), allocs)
		}
	}
}

// The two per-key instance types the counting policies had before a key's
// cut-off state became one counter, kept verbatim as the oracle the
// counter must reproduce.
type secondChanceInstance struct {
	idleUpdates int // consecutive updates that found zero queries
}

func (s *secondChanceInstance) Keep(queries, _ int) bool {
	if queries > 0 {
		s.idleUpdates = 0
		return true
	}
	s.idleUpdates++
	return s.idleUpdates < 2
}

type windowedIdleInstance struct {
	limit int
	idle  int
}

func (w *windowedIdleInstance) Keep(queries, _ int) bool {
	if queries > 0 {
		w.idle = 0
		return true
	}
	w.idle++
	return w.idle < w.limit
}

// Over 10,000 random (queries, dist) steps — idle runs long enough to cut,
// and cut keys that stay idle — every counting policy decides exactly as
// its instance did.
func TestCounterMatchesInstanceOracle(t *testing.T) {
	type oracle interface{ Keep(queries, dist int) bool }
	type pair struct {
		p   Policy
		old oracle
	}
	cases := []pair{{SecondChance(), &secondChanceInstance{}}}
	for n := 1; n <= 4; n++ {
		cases = append(cases, pair{WindowedIdle(n), &windowedIdleInstance{limit: n}})
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(1))
		var idle int32
		cuts := 0
		for step := 0; step < 10000; step++ {
			q, d := 0, rng.Intn(64)
			if rng.Intn(3) == 0 {
				q = rng.Intn(5)
			}
			got, want := c.p.Keep(q, d, &idle), c.old.Keep(q, d)
			if got != want {
				t.Fatalf("%s, step %d: Keep(%d, %d) = %v, the instance said %v", c.p.Name(), step, q, d, got, want)
			}
			if !got {
				cuts++
			}
		}
		if cuts == 0 {
			t.Errorf("%s never cut: the steps exercised nothing", c.p.Name())
		}
	}
}
