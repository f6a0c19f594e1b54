package overlay

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// stubOverlay is a minimal single-node overlay for registry tests.
type stubOverlay struct{}

func (stubOverlay) Size() int                              { return 1 }
func (stubOverlay) Owner(Key) NodeID                       { return 0 }
func (stubOverlay) NextHop(n NodeID, _ Key) (NodeID, bool) { return n, true }
func (stubOverlay) Neighbors(NodeID) []NodeID              { return nil }

// unregister lets a test that registers a kind run again in the same
// process (-cpu 1,2,4, -count).
func unregister(t *testing.T, kind string) {
	t.Cleanup(func() { delete(registry, kind) })
}

func TestRegisterAndBuild(t *testing.T) {
	unregister(t, "test-stub")
	Register("test-stub", func(n int, seed int64) Overlay { return stubOverlay{} })
	if !Registered("test-stub") {
		t.Fatal("test-stub not registered")
	}
	ov, err := Build("test-stub", 1, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if ov.Size() != 1 {
		t.Fatalf("Size = %d", ov.Size())
	}
}

func TestBuildUnknownKindListsRegistered(t *testing.T) {
	_, err := Build("no-such-overlay", 8, 1)
	if err == nil {
		t.Fatal("Build of unknown kind did not error")
	}
	for _, kind := range Kinds() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not list registered kind %q", err, kind)
		}
	}
}

func TestMustBuildUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild of unknown kind did not panic")
		}
	}()
	MustBuild("no-such-overlay", 8, 1)
}

func TestRegisterDuplicatePanics(t *testing.T) {
	unregister(t, "test-dup")
	Register("test-dup", func(n int, seed int64) Overlay { return stubOverlay{} })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("test-dup", func(n int, seed int64) Overlay { return stubOverlay{} })
}

func TestRegisterEmptyKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Register(\"\") did not panic")
		}
	}()
	Register("", func(n int, seed int64) Overlay { return stubOverlay{} })
}

func TestRegisterNilBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Register with nil builder did not panic")
		}
	}()
	Register("test-nil", nil)
}

func TestKindsSortedAndJoined(t *testing.T) {
	kinds := Kinds()
	if !sort.StringsAreSorted(kinds) {
		t.Fatalf("Kinds not sorted: %v", kinds)
	}
	if got, want := KindList(), strings.Join(kinds, "|"); got != want {
		t.Fatalf("KindList = %q, want %q", got, want)
	}
}

// Shared builds one instance per (kind, n, seed), once however many
// callers ask at a time, and keeps only the most recent key of a kind.
func TestSharedBuildsEachKeyOnce(t *testing.T) {
	unregister(t, "test-shared")
	t.Cleanup(func() { delete(shared.last, "test-shared") })
	type built struct {
		stubOverlay
		seed int64
	}
	var builds atomic.Int32
	Register("test-shared", func(n int, seed int64) Overlay {
		builds.Add(1)
		return &built{seed: seed}
	})
	get := func(seed int64) Overlay {
		ov, err := Shared("test-shared", 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ov
	}

	got := make([]Overlay, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = get(1) }()
	}
	wg.Wait()
	for _, ov := range got {
		if ov != got[0] {
			t.Fatal("concurrent callers of one key got different instances")
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one key, want 1", builds.Load())
	}
	if other := get(2); other == got[0] || builds.Load() != 2 {
		t.Fatalf("a second seed shares the first's instance (%d builds)", builds.Load())
	}
	if again := get(1); again == got[0] || builds.Load() != 3 {
		t.Fatalf("seed 1 was kept beside seed 2 (%d builds), want only the most recent", builds.Load())
	}
	if _, err := Shared("no-such-overlay", 8, 1); err == nil {
		t.Fatal("Shared of an unknown kind did not error")
	}
}
