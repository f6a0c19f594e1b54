package overlay

import (
	"sort"
	"strings"
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
