package policy

import (
	"testing"
	"testing/quick"
)

func TestAlwaysKeep(t *testing.T) {
	p := AlwaysKeep().New()
	for d := 0; d < 50; d++ {
		if !p.Keep(0, d) {
			t.Fatalf("AlwaysKeep cut at dist %d", d)
		}
	}
}

func TestNeverKeep(t *testing.T) {
	p := NeverKeep().New()
	if p.Keep(1000, 1) {
		t.Fatal("NeverKeep kept")
	}
}

func TestPushLevel(t *testing.T) {
	p := PushLevel(5).New()
	for d := 0; d <= 5; d++ {
		if !p.Keep(0, d) {
			t.Fatalf("PushLevel(5) cut at dist %d", d)
		}
	}
	for d := 6; d < 20; d++ {
		if p.Keep(100, d) {
			t.Fatalf("PushLevel(5) kept at dist %d", d)
		}
	}
}

func TestLinearThreshold(t *testing.T) {
	p := Linear(0.5).New()
	// At distance 10, threshold is 5 queries.
	if p.Keep(4, 10) {
		t.Fatal("kept below threshold")
	}
	if !p.Keep(5, 10) {
		t.Fatal("cut at threshold")
	}
	if !p.Keep(6, 10) {
		t.Fatal("cut above threshold")
	}
}

func TestLinearZeroAlphaAlwaysKeeps(t *testing.T) {
	p := Linear(0).New()
	if !p.Keep(0, 100) {
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
	p := Logarithmic(2).New()
	// At distance 4, threshold is 2*log2(4) = 4 queries.
	if p.Keep(3, 4) {
		t.Fatal("kept below threshold")
	}
	if !p.Keep(4, 4) {
		t.Fatal("cut at threshold")
	}
	// At distance 1, log2(1)=0 so always keep.
	if !p.Keep(0, 1) {
		t.Fatal("cut at distance 1")
	}
	// Distance 0 (authority itself) always keeps.
	if !p.Keep(0, 0) {
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
		li, lo := lin.New().Keep(q, d), log.New().Keep(q, d)
		return !(!lo && li) || lo == li // log cut ⇒ linear cut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondChanceGivesOneGrace(t *testing.T) {
	p := SecondChance().New()
	if !p.Keep(0, 5) {
		t.Fatal("cut on first idle update (no second chance)")
	}
	if p.Keep(0, 5) {
		t.Fatal("kept on second consecutive idle update")
	}
}

func TestSecondChanceResetsOnQueries(t *testing.T) {
	p := SecondChance().New()
	if !p.Keep(0, 5) {
		t.Fatal("cut on first idle")
	}
	if !p.Keep(3, 5) {
		t.Fatal("cut despite queries")
	}
	// Streak was reset; one idle update is tolerated again.
	if !p.Keep(0, 5) {
		t.Fatal("cut on first idle after reset")
	}
	if p.Keep(0, 5) {
		t.Fatal("kept on second idle after reset")
	}
}

func TestSecondChanceIgnoresDistance(t *testing.T) {
	a, b := SecondChance().New(), SecondChance().New()
	for i := 0; i < 5; i++ {
		if a.Keep(1, 1) != b.Keep(1, 1000) {
			t.Fatal("second-chance decision depended on distance")
		}
	}
}

func TestSecondChanceInstancesIndependent(t *testing.T) {
	pol := SecondChance()
	a, b := pol.New(), pol.New()
	a.Keep(0, 1) // a has one idle
	if !b.Keep(0, 1) {
		t.Fatal("instance b inherited instance a's idle streak")
	}
}

func TestWindowedIdle(t *testing.T) {
	p := WindowedIdle(3).New()
	if !p.Keep(0, 1) || !p.Keep(0, 1) {
		t.Fatal("cut before window exhausted")
	}
	if p.Keep(0, 1) {
		t.Fatal("kept after 3 consecutive idle updates")
	}
}

func TestWindowedIdleOneIsImmediate(t *testing.T) {
	p := WindowedIdle(1).New()
	if p.Keep(0, 1) {
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
// true then Keep(q', d) with q' > q is also true on a fresh instance.
func TestPropertyMonotoneInPopularity(t *testing.T) {
	policies := []Policy{AlwaysKeep(), NeverKeep(), PushLevel(5), Linear(0.3), Logarithmic(0.4), SecondChance(), WindowedIdle(2)}
	f := func(qRaw uint8, dRaw uint8) bool {
		q, d := int(qRaw), int(dRaw)
		for _, p := range policies {
			if p.New().Keep(q, d) && !p.New().Keep(q+1, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A stateless policy's New hands every key the one shared instance, so a
// new key state under it allocates nothing; the counting policies keep one
// instance per key.
func TestStatelessNewAllocatesNothing(t *testing.T) {
	for _, p := range []Policy{AlwaysKeep(), NeverKeep(), PushLevel(3), Linear(0.5), Logarithmic(0.5)} {
		if allocs := testing.AllocsPerRun(100, func() { p.New() }); allocs != 0 {
			t.Errorf("%s: New allocates %v objects, want 0", p.Name(), allocs)
		}
	}
	for _, p := range []Policy{SecondChance(), WindowedIdle(3)} {
		if p.New() == p.New() {
			t.Errorf("%s: two keys share one counting instance", p.Name())
		}
	}
}
