// Package chord implements a Chord ring overlay [SMK+01] over a 64-bit
// identifier space with greedy closest-preceding-finger routing. CUP is
// overlay-agnostic (§2.2 of the paper lists Chord among the substrates it
// supports); this package backs the overlay-ablation experiment that
// re-runs the CUP evaluation on Chord instead of CAN, and the n = 10^6
// scale sweep.
//
// The ring stores no finger table. Finger b of node m is successor(id(m) +
// 2^b), a pure function of the sorted identifiers, and the closest
// preceding finger toward a key is fixed by one number (see NextHop), so
// a Ring is the sorted identifiers, each node's own, and an index into
// the sorted ones: about 24 bytes a node instead of a 256-byte table.
// Node i's identifier is the hash of its label "chord-node-<i>", folded
// from one hash state of the prefix that every label shares, so a build
// formats no label and costs what its arrays cost.
package chord

import (
	"fmt"
	"math/bits"
	"slices"

	"cup/internal/overlay"
)

// Ring is a static Chord ring. Nodes are placed on the 2^64 identifier
// circle by hashing their labels; each key is owned by its successor node.
// Ring implements overlay.Overlay.
type Ring struct {
	sorted []uint64         // ring positions, ascending
	order  []overlay.NodeID // order[i] is the node at sorted[i]
	pos    []uint64         // pos[n] is n's ring position
	// index[h] is the first i whose sorted[i] has top bits ≥ h, taking
	// the top 64−shift bits, with 2^(64−shift) ≥ n: a bucket holds at
	// most one position on average, so a successor is one load and a
	// short scan.
	index []int32
	shift uint
}

var _ overlay.Overlay = (*Ring)(nil)

// labelPrefix names node i "chord-node-<i>"; its ring position is the
// label's hash.
const labelPrefix = "chord-node-"

// Build constructs a ring of n nodes with deterministic labels
// "chord-node-<i>". No label is formatted: overlay.HashNodeLabels folds
// the prefix once and shares each decade's hash state among its ten
// labels, giving every node the id its formatted label hashes to. Labels
// collide on the ring with probability ~n²/2^64, which is negligible; a
// collision panics rather than silently corrupting ownership.
//
// The sort is a counting sort on the index's top bits: the per-bucket
// counts' prefix sums are the index, scattering by them orders the ring
// up to positions sharing a bucket, and an insertion pass, moving each
// position within its bucket only, finishes it.
func Build(n int) *Ring {
	if n <= 0 {
		panic("chord: Build requires n > 0")
	}
	r := &Ring{
		sorted: make([]uint64, n),
		order:  make([]overlay.NodeID, n),
		pos:    make([]uint64, n),
		shift:  uint(64 - bits.Len(uint(n-1))),
	}
	r.index = make([]int32, 1<<(64-r.shift)+1)
	ids := r.pos
	overlay.HashNodeLabels(labelPrefix, ids)
	for _, id := range ids {
		r.index[id>>r.shift]++
	}
	for h := 1; h < len(r.index); h++ {
		r.index[h] += r.index[h-1] // the end of bucket h
	}
	for i := n - 1; i >= 0; i-- {
		h := ids[i] >> r.shift
		r.index[h]-- // ends at the start of bucket h
		p := r.index[h]
		r.sorted[p], r.order[p] = ids[i], overlay.NodeID(i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && r.sorted[j] < r.sorted[j-1]; j-- {
			r.sorted[j], r.sorted[j-1] = r.sorted[j-1], r.sorted[j]
			r.order[j], r.order[j-1] = r.order[j-1], r.order[j]
		}
	}
	for i := 1; i < n; i++ {
		if r.sorted[i] == r.sorted[i-1] {
			panic(fmt.Sprintf("chord: ring position collision between nodes %d and %d", r.order[i-1], r.order[i]))
		}
	}
	return r
}

// at returns the index into sorted of identifier t's successor: the first
// position at or clockwise after t.
func (r *Ring) at(t uint64) int {
	i := int(r.index[t>>r.shift])
	for i < len(r.sorted) && r.sorted[i] < t {
		i++
	}
	if i == len(r.sorted) {
		i = 0
	}
	return i
}

// successorOf returns the node owning identifier t.
func (r *Ring) successorOf(t uint64) overlay.NodeID { return r.order[r.at(t)] }

// Size returns the number of nodes.
func (r *Ring) Size() int { return len(r.sorted) }

// ID returns n's position on the identifier circle.
func (r *Ring) ID(n overlay.NodeID) uint64 { return r.pos[n] }

// Successor returns the node clockwise-adjacent to n.
func (r *Ring) Successor(n overlay.NodeID) overlay.NodeID {
	return r.order[(r.at(r.pos[n])+1)%len(r.order)]
}

// Predecessor returns the node counterclockwise-adjacent to n.
func (r *Ring) Predecessor(n overlay.NodeID) overlay.NodeID {
	return r.order[(r.at(r.pos[n])+len(r.order)-1)%len(r.order)]
}

// Owner returns the authority node for key k (the successor of its hash).
func (r *Ring) Owner(k overlay.Key) overlay.NodeID {
	return r.successorOf(overlay.HashID(k))
}

// NextHop implements Chord routing: if n owns k, stop; if n's successor
// owns it, hop there; otherwise hop to n's closest finger preceding k's
// hash t — the highest b whose finger successor(id(n) + 2^b) lies strictly
// inside (id(n), t). Each hop at least halves the remaining clockwise
// distance, so paths are O(log n).
//
// That finger is computed, not looked up. Let o = Owner(k), neither n nor
// its successor, and q = Predecessor(o). Going clockwise from n the ring
// reads n, …, q, t, o (no node sits in [t, id(o)) by definition of o, and
// q ≠ n since o is not n's successor), so the nodes strictly inside
// (id(n), t) are exactly those at clockwise distance 1 … d from n, where
// d = (id(q) − id(n)) mod 2^64 ≥ 1. Finger b is the node at the least
// distance ≥ 2^b, or n itself when none is that far. If 2^b ≤ d, q is at
// least that far, so finger b is at distance in [2^b, d]: inside. If
// 2^b > d, finger b is n or beyond d: outside. The highest finger inside
// is therefore b = ⌊log₂ d⌋, and a stored 64-entry table scanned from the
// top returns the same node.
//
// n enters as its position alone: n owns k when it sits at o's position,
// and o is its successor when it sits at q's, so n's place in the sorted
// order is never looked up.
func (r *Ring) NextHop(n overlay.NodeID, k overlay.Key) (overlay.NodeID, bool) {
	size := len(r.sorted)
	o, id := r.at(overlay.HashID(k)), r.pos[n]
	q := r.sorted[(o+size-1)%size]
	if id == r.sorted[o] || id == q {
		return r.order[o], true
	}
	return r.successorOf(id + 1<<(bits.Len64(q-id)-1)), true
}

// Neighbors returns the routing neighbors of n: its distinct fingers plus
// successor and predecessor, ascending. In CUP terms these are the peers
// with which n maintains query/update channels. The fingers are computed
// per call; no runtime path asks a static ring for them.
func (r *Ring) Neighbors(n overlay.NodeID) []overlay.NodeID {
	out := make([]overlay.NodeID, 0, 66)
	out = append(out, r.Successor(n), r.Predecessor(n))
	for b := 0; b < 64; b++ {
		out = append(out, r.successorOf(r.ID(n)+1<<b))
	}
	slices.Sort(out)
	return slices.DeleteFunc(slices.Compact(out), func(m overlay.NodeID) bool { return m == n })
}
