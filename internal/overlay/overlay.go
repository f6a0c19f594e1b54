// Package overlay defines the key space, node identity, and routing
// abstraction shared by the structured peer-to-peer overlays in this
// repository (the 2-D CAN in internal/can, the Chord ring in
// internal/chord, and the Kademlia XOR table in internal/kademlia), plus
// the registry (Register/Build/Kinds) that makes substrates pluggable by
// name.
//
// CUP (§2.2 of the paper) assumes only that "anytime a node issues a query
// for key K, the query will be routed along a well-defined structured path
// with a bounded number of hops from the querying node to the authority node
// for K", and that each hop is chosen deterministically by hashing K. The
// Overlay interface captures exactly that contract, so the CUP protocol core
// is overlay-agnostic — the ablation experiment A1 re-runs the evaluation
// across every registered substrate without touching protocol code.
package overlay

import "fmt"

// NodeID identifies a node in the overlay. IDs are dense indexes assigned at
// construction; they index metric arrays and interest-bit maps.
type NodeID int32

// NoNode is the sentinel "no such node" value.
const NoNode = NodeID(-1)

// String implements fmt.Stringer.
func (n NodeID) String() string {
	if n == NoNode {
		return "node(∅)"
	}
	return fmt.Sprintf("node(%d)", int32(n))
}

// Key names a content item in the global index. Keys hash onto the overlay's
// coordinate space; the node whose region covers the hash owns the key's
// index entries and is its authority node.
type Key string

// Point is a position in the unit square [0,1)², the virtual coordinate
// space of the CAN. Chord uses only the first coordinate, scaled to its
// identifier ring.
type Point struct {
	X, Y float64
}

// hash64 hashes s with 64-bit FNV-1a, optionally salted, then runs the
// splitmix64 finalizer. Raw FNV-1a has a weak avalanche: keys differing
// only in a trailing digit ("key-0", "key-1", …) land on near-identical
// high bits, which clustered every workload key onto one CAN zone and
// broke the paper's "uniform hash function that evenly distributes the
// keys" assumption. The finalizer restores full-width diffusion. The
// FNV-1a loop is written out, not a call to fold, so HashID stays inside
// the inliner's budget on the routing path; TestHash64IsFNV1a pins it to
// hash/fnv.
func hash64(s string, salt byte) uint64 {
	v := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		v = (v ^ uint64(s[i])) * fnvPrime
	}
	if salt != 0 {
		v = (v ^ uint64(salt)) * fnvPrime
	}
	return mix(v)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold folds the bytes of s into the FNV-1a state v, and foldByte one
// byte: hash64's loop, a piece at a time.
func fold(v uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		v = foldByte(v, s[i])
	}
	return v
}

func foldByte(v uint64, b byte) uint64 { return (v ^ uint64(b)) * fnvPrime }

// mix is the splitmix64 finalizer.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// unit maps a 64-bit hash to [0,1).
func unit(v uint64) float64 {
	return float64(v>>11) / float64(1<<53)
}

// HashPoint maps a key deterministically to a point in the unit square,
// using two independently salted FNV-1a hashes. The paper assumes "a uniform
// hash function that evenly distributes the keys to the space".
func HashPoint(k Key) Point {
	return Point{
		X: unit(hash64(string(k), 0)),
		Y: unit(hash64(string(k), 1)),
	}
}

// HashID maps a key to a 64-bit identifier for ring overlays.
func HashID(k Key) uint64 { return hash64(string(k), 0) }

// nodeSalt salts node labels apart from keys.
const nodeSalt = 2

// HashNodeID maps an arbitrary label (e.g. "node-17") to a ring identifier.
func HashNodeID(label string) uint64 { return hash64(label, nodeSalt) }

// HashNodeLabel is HashNodeID(prefix + decimal(i)) for i ≥ 0 — the
// identifier of the node labelled "chord-node-17" is
// HashNodeLabel("chord-node-", 17) — with no label formatted.
func HashNodeLabel(prefix string, i int) uint64 {
	return mix(foldByte(foldDecimal(fold(fnvOffset, prefix), uint(i)), nodeSalt))
}

// foldDecimal folds the decimal digits of i into the FNV-1a state v.
func foldDecimal(v uint64, i uint) uint64 {
	if i >= 10 {
		v = foldDecimal(v, i/10)
	}
	return foldByte(v, '0'+byte(i%10))
}

// HashNodeLabels sets ids[i] to HashNodeLabel(prefix, i) for every i, a
// whole overlay's identifiers in one pass. The prefix is folded once, and
// the FNV-1a state after a label's leading digits is shared by the ten
// labels that differ in the last: label i is decade i/10's state with
// digit i%10 folded in, and decade q ≥ 1 is decade q/10's with digit q%10
// (decade 0 is the bare prefix, so 0–9 get no leading zero). The decade
// states live in ids[:⌈n/10⌉] until the labels overwrite them from the
// top down, so decade q's readers, labels 10q … 10q+9, are written before
// label q takes its slot.
func HashNodeLabels(prefix string, ids []uint64) {
	if len(ids) == 0 {
		return
	}
	ids[0] = fold(fnvOffset, prefix)
	for q := 1; q < (len(ids)+9)/10; q++ {
		ids[q] = foldByte(ids[q/10], '0'+byte(q%10))
	}
	for i := len(ids) - 1; i >= 0; i-- {
		ids[i] = mix(foldByte(foldByte(ids[i/10], '0'+byte(i%10)), nodeSalt))
	}
}

// Overlay is a structured P2P routing substrate. Implementations must be
// deterministic: the same key queried at the same node always follows the
// same path, which is what makes CUP's reverse-path update trees stable.
type Overlay interface {
	// Size returns the number of nodes.
	Size() int
	// Owner returns the authority node for key k.
	Owner(k Key) NodeID
	// NextHop returns the neighbor of n that is the next hop on the path
	// from n toward the authority for k. It returns n itself when n is the
	// authority. The second result is false if n has no route (cannot
	// happen in a connected overlay).
	NextHop(n NodeID, k Key) (NodeID, bool)
	// Neighbors returns the current neighbor set of n. The slice may be
	// the overlay's own: callers must not mutate it, and on a dynamic
	// overlay it is valid only until the next join or leave, which may
	// edit it in place — copy it to keep it across a membership change.
	Neighbors(n NodeID) []NodeID
}

// PathTo walks NextHop from n to the authority of k and returns the full
// path including both endpoints. maxHops guards against routing loops in a
// buggy overlay; it panics when exceeded because a loop is always a bug.
func PathTo(o Overlay, n NodeID, k Key, maxHops int) []NodeID {
	path := []NodeID{n}
	cur := n
	for hop := 0; ; hop++ {
		next, ok := o.NextHop(cur, k)
		if !ok {
			panic(fmt.Sprintf("overlay: no route from %v for key %q", cur, k))
		}
		if next == cur {
			return path
		}
		if hop >= maxHops {
			panic(fmt.Sprintf("overlay: path for key %q exceeded %d hops", k, maxHops))
		}
		path = append(path, next)
		cur = next
	}
}

// Distance returns the number of hops from n to the authority for k.
func Distance(o Overlay, n NodeID, k Key, maxHops int) int {
	return len(PathTo(o, n, k, maxHops)) - 1
}
