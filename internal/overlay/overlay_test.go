package overlay

import (
	"hash/fnv"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestHashPointDeterministic(t *testing.T) {
	a := HashPoint("key-1")
	b := HashPoint("key-1")
	if a != b {
		t.Fatalf("HashPoint not deterministic: %v vs %v", a, b)
	}
}

func TestHashPointDistinctKeys(t *testing.T) {
	if HashPoint("key-1") == HashPoint("key-2") {
		t.Fatal("distinct keys hashed to identical points")
	}
}

func TestHashPointInUnitSquare(t *testing.T) {
	f := func(s string) bool {
		p := HashPoint(Key(s))
		return p.X >= 0 && p.X < 1 && p.Y >= 0 && p.Y < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHashPointCoordinatesIndependent(t *testing.T) {
	// X and Y use different salts, so they must differ for almost all keys.
	same := 0
	for i := 0; i < 1000; i++ {
		p := HashPoint(Key(string(rune('a' + i%26))))
		if p.X == p.Y {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d keys had X == Y", same)
	}
}

func TestHashPointUniformity(t *testing.T) {
	// Chi-squared-ish sanity check over a 4x4 grid.
	var grid [4][4]int
	const n = 40000
	for i := 0; i < n; i++ {
		p := HashPoint(Key("uniform-" + string(rune(i)) + "-" + string(rune(i/17))))
		grid[int(p.X*4)][int(p.Y*4)]++
	}
	want := float64(n) / 16
	for x := range grid {
		for y := range grid[x] {
			got := float64(grid[x][y])
			if math.Abs(got-want)/want > 0.15 {
				t.Fatalf("cell (%d,%d) = %v, want ≈ %v", x, y, got, want)
			}
		}
	}
}

func TestHashIDDeterministic(t *testing.T) {
	if HashID("k") != HashID("k") {
		t.Fatal("HashID not deterministic")
	}
	if HashID("k1") == HashID("k2") {
		t.Fatal("HashID collided on trivially distinct keys")
	}
}

func TestHashNodeIDDiffersFromHashID(t *testing.T) {
	if HashNodeID("x") == HashID("x") {
		t.Fatal("node and key hash spaces are not salted apart")
	}
}

// The written-out FNV-1a loop is hash/fnv's, salt byte included: every
// ring position and key point in the goldens rests on these bits.
func TestHash64IsFNV1a(t *testing.T) {
	f := func(s string, salt byte) bool {
		h := fnv.New64a()
		h.Write([]byte(s))
		if salt != 0 {
			h.Write([]byte{salt})
		}
		v := h.Sum64()
		v ^= v >> 30
		v *= 0xbf58476d1ce4e5b9
		v ^= v >> 27
		v *= 0x94d049bb133111eb
		v ^= v >> 31
		return hash64(s, salt) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// HashNodeLabel and HashNodeLabels, which fold a label's prefix and
// digits without formatting it, give every node the identifier of its
// formatted label, on both sides of every decade boundary and at the
// sizes the overlays are built at.
func TestNodeIDsMatchLabelHash(t *testing.T) {
	for _, prefix := range []string{"chord-node-", "kad-node-"} {
		for _, n := range []int{1, 9, 10, 11, 99, 100, 101, 1000, 1001, 1 << 17, 1_000_000} {
			ids := make([]uint64, n)
			HashNodeLabels(prefix, ids)
			for i, got := range ids {
				want := HashNodeID(prefix + strconv.Itoa(i))
				if got != want {
					t.Fatalf("HashNodeLabels(%q, [%d]) id %d = %#x, want %#x", prefix, n, i, got, want)
				}
				if one := HashNodeLabel(prefix, i); one != want {
					t.Fatalf("HashNodeLabel(%q, %d) = %#x, want %#x", prefix, i, one, want)
				}
			}
		}
	}
}

func TestNodeIDString(t *testing.T) {
	if NoNode.String() != "node(∅)" {
		t.Fatalf("NoNode.String() = %q", NoNode.String())
	}
	if NodeID(7).String() != "node(7)" {
		t.Fatalf("NodeID(7).String() = %q", NodeID(7).String())
	}
}

// staticOverlay is a line topology 0-1-2-…-(n-1) where node n-1 owns
// every key; used to test PathTo and Distance in isolation.
type staticOverlay struct{ n int }

func (s staticOverlay) Size() int        { return s.n }
func (s staticOverlay) Owner(Key) NodeID { return NodeID(s.n - 1) }
func (s staticOverlay) NextHop(n NodeID, _ Key) (NodeID, bool) {
	if int(n) == s.n-1 {
		return n, true
	}
	return n + 1, true
}
func (s staticOverlay) Neighbors(n NodeID) []NodeID {
	var out []NodeID
	if n > 0 {
		out = append(out, n-1)
	}
	if int(n) < s.n-1 {
		out = append(out, n+1)
	}
	return out
}

func TestPathToLine(t *testing.T) {
	o := staticOverlay{5}
	path := PathTo(o, 0, "k", 10)
	if len(path) != 5 {
		t.Fatalf("path length %d, want 5", len(path))
	}
	if path[0] != 0 || path[4] != 4 {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	if d := Distance(o, 0, "k", 10); d != 4 {
		t.Fatalf("Distance = %d, want 4", d)
	}
	if d := Distance(o, 4, "k", 10); d != 0 {
		t.Fatalf("Distance at authority = %d, want 0", d)
	}
}

func TestPathToHopGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PathTo did not panic on exceeding maxHops")
		}
	}()
	PathTo(staticOverlay{100}, 0, "k", 3)
}
