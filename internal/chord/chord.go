// Package chord implements a Chord ring overlay [SMK+01] over a 64-bit
// identifier space, with finger tables and greedy closest-preceding-finger
// routing. CUP is overlay-agnostic (§2.2 of the paper lists Chord among the
// substrates it supports); this package backs the overlay-ablation
// experiment that re-runs the CUP evaluation on Chord instead of CAN.
package chord

import (
	"fmt"
	"sort"

	"cup/internal/overlay"
)

const fingerBits = 64

// Ring is a static Chord ring. Nodes are placed on the 2^64 identifier
// circle by hashing their labels; each key is owned by its successor node.
// Ring implements overlay.Overlay.
type Ring struct {
	ids   []uint64         // ring position per NodeID (dense index)
	order []overlay.NodeID // nodes sorted by ring position
	// fingers is one flat row-major table, fingerBits entries per node:
	// fingers[i*fingerBits+b] = successor(ids[i] + 2^b). One pointer-free
	// allocation instead of n slice headers — at 10^6 nodes that is the
	// difference between a table the GC never scans and a million tiny
	// objects.
	fingers []overlay.NodeID
	succ    []overlay.NodeID // immediate successor per node
	pred    []overlay.NodeID // immediate predecessor per node
}

var _ overlay.Overlay = (*Ring)(nil)

// Build constructs a ring of n nodes with deterministic labels
// "chord-node-<i>". Labels collide on the ring with probability ~n²/2^64,
// which is negligible; a collision panics rather than silently corrupting
// ownership.
func Build(n int) *Ring {
	if n <= 0 {
		panic("chord: Build requires n > 0")
	}
	r := &Ring{
		ids:     make([]uint64, n),
		order:   make([]overlay.NodeID, n),
		fingers: make([]overlay.NodeID, n*fingerBits),
		succ:    make([]overlay.NodeID, n),
		pred:    make([]overlay.NodeID, n),
	}
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		id := overlay.HashNodeID(fmt.Sprintf("chord-node-%d", i))
		if seen[id] {
			panic(fmt.Sprintf("chord: ring position collision at node %d", i))
		}
		seen[id] = true
		r.ids[i] = id
		r.order[i] = overlay.NodeID(i)
	}
	sort.Slice(r.order, func(a, b int) bool { return r.ids[r.order[a]] < r.ids[r.order[b]] })
	for pos, node := range r.order {
		r.succ[node] = r.order[(pos+1)%n]
		r.pred[node] = r.order[(pos-1+n)%n]
	}
	r.buildFingers()
	return r
}

// buildFingers computes the classic finger tables: entry b of node m
// points at the first node whose identifier succeeds ids[m] + 2^b (mod
// 2^64). Duplicate consecutive fingers are kept — the table is indexed
// positionally.
//
// For a fixed b, walking the nodes in ring order makes the targets walk
// the circle once too (they are the ring positions shifted by 2^b), so
// each bit's successor is an advancing cursor rather than a binary search
// per finger: one pass over the sorted ring with 64 cursors, each going
// round once, instead of 64·n searches chasing two dependent loads per
// probe. Rows are written whole, in ring order.
func (r *Ring) buildFingers() {
	n := len(r.order)
	sorted := make([]uint64, n) // ring positions in ring order
	for pos, node := range r.order {
		sorted[pos] = r.ids[node]
	}
	// cur[b] is the ring-order index of the first position ≥ bit b's
	// current target, n meaning "past the last": the successor wraps to 0.
	var cur [fingerBits]int
	var wrapped [fingerBits]bool
	for pos, id := range sorted {
		row := r.fingers[int(r.order[pos])*fingerBits:][:fingerBits]
		for b := range row {
			t := id + uint64(1)<<uint(b) // wraps naturally mod 2^64
			if t < id && !wrapped[b] {
				// Bit b's targets crossed zero: from here they start over
				// from the bottom of the ring, still ascending.
				wrapped[b], cur[b] = true, 0
			}
			c := cur[b]
			for c < n && sorted[c] < t {
				c++
			}
			cur[b] = c
			if c == n {
				c = 0
			}
			row[b] = r.order[c]
		}
	}
}

// finger returns entry b of n's finger table.
func (r *Ring) finger(n overlay.NodeID, b int) overlay.NodeID {
	return r.fingers[int(n)*fingerBits+b]
}

// successorOf returns the node owning identifier t: the first node at or
// clockwise after t.
func (r *Ring) successorOf(t uint64) overlay.NodeID {
	i := sort.Search(len(r.order), func(i int) bool { return r.ids[r.order[i]] >= t })
	if i == len(r.order) {
		i = 0
	}
	return r.order[i]
}

// Size returns the number of nodes.
func (r *Ring) Size() int { return len(r.ids) }

// ID returns n's position on the identifier circle.
func (r *Ring) ID(n overlay.NodeID) uint64 { return r.ids[n] }

// Successor returns the node clockwise-adjacent to n.
func (r *Ring) Successor(n overlay.NodeID) overlay.NodeID { return r.succ[n] }

// Predecessor returns the node counterclockwise-adjacent to n.
func (r *Ring) Predecessor(n overlay.NodeID) overlay.NodeID { return r.pred[n] }

// Owner returns the authority node for key k (the successor of its hash).
func (r *Ring) Owner(k overlay.Key) overlay.NodeID {
	return r.successorOf(overlay.HashID(k))
}

// between reports whether x ∈ (a, b] on the identifier circle.
func between(a, x, b uint64) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b // wrapped interval
}

// NextHop implements Chord routing: if n owns k, stop; if k falls between n
// and its successor, hop to the successor (which owns it); otherwise hop to
// the closest finger preceding k. Each hop at least halves the remaining
// clockwise distance, so paths are O(log n).
func (r *Ring) NextHop(n overlay.NodeID, k overlay.Key) (overlay.NodeID, bool) {
	t := overlay.HashID(k)
	if r.Owner(k) == n {
		return n, true
	}
	if between(r.ids[n], t, r.ids[r.succ[n]]) {
		return r.succ[n], true
	}
	// Closest preceding finger: highest finger strictly inside (n, t).
	for b := fingerBits - 1; b >= 0; b-- {
		f := r.finger(n, b)
		if f != n && between(r.ids[n], r.ids[f], t) && r.ids[f] != t {
			return f, true
		}
	}
	return r.succ[n], true
}

// Neighbors returns the routing neighbors of n: its distinct finger-table
// entries plus successor and predecessor. In CUP terms these are the peers
// with which n maintains query/update channels.
func (r *Ring) Neighbors(n overlay.NodeID) []overlay.NodeID {
	set := map[overlay.NodeID]bool{r.succ[n]: true, r.pred[n]: true}
	for _, f := range r.fingers[int(n)*fingerBits : (int(n)+1)*fingerBits] {
		if f != n {
			set[f] = true
		}
	}
	delete(set, n)
	out := make([]overlay.NodeID, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
