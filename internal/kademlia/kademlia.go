// Package kademlia implements a Kademlia overlay [MM02] over the 64-bit
// XOR-metric identifier space, with per-node k-bucket routing tables and
// greedy closest-XOR forwarding. CUP (§2.2 of the paper) requires only a
// structured overlay with deterministic bounded-hop routing; Kademlia — the
// substrate behind the largest deployed P2P networks — is the third such
// substrate in this repository, next to the 2-D CAN and the Chord ring.
//
// Determinism. Node identifiers come from hashing fixed labels
// ("kad-node-<i>") and XOR distances between distinct identifiers and a
// fixed target are pairwise distinct (x ↦ x⊕t is a bijection), so both the
// greedy next hop and the globally closest owner are unique — routing needs
// no tie-break rule at all, and CUP's reverse-path update trees are stable.
//
// Convergence. Bucket b of node n holds up to K alive nodes whose
// identifiers first differ from n's at bit b, keeping the K XOR-closest to
// n when the range holds more. A bucket is therefore empty only when its
// whole range is empty. For a target t with d = id(n)⊕t topping out at bit
// b, every member y of bucket b satisfies id(y)⊕t < 2^b ≤ d, and whenever
// any node is closer to t than n, one of n's buckets contains a closer
// node (see NextHop). Greedy forwarding thus strictly shrinks the XOR
// distance every hop, never sticks in a local minimum, and reaches the
// owner in O(log n) hops.
package kademlia

import (
	"fmt"
	"math/bits"
	"sort"

	"cup/internal/overlay"
	"cup/internal/sim"
)

// idBits is the identifier width; distances fit a uint64.
const idBits = 64

// DefaultBucketSize is the classic Kademlia K: the per-bucket capacity.
// Larger K adds routing-table redundancy (more neighbors, shorter paths);
// the protocol above only needs K ≥ 1 for convergence.
const DefaultBucketSize = 8

// Table is a Kademlia overlay: the full membership with one k-bucket
// routing table per node. Node IDs are dense indexes (overlay.NodeID);
// positions in the XOR space come from hashing their labels. Table
// implements overlay.Overlay.
type Table struct {
	k       int
	ids     []uint64             // XOR-space position per NodeID
	alive   []bool               // false ⇒ departed
	labels  map[uint64]bool      // occupied positions, for collision checks
	buckets [][][]overlay.NodeID // buckets[n][b], sorted by XOR distance to n
	nbrs    [][]overlay.NodeID   // cached bucket union per node, sorted by ID
}

var _ overlay.Overlay = (*Table)(nil)

// Build constructs a Kademlia overlay of n nodes with bucket capacity
// DefaultBucketSize. Labels are deterministic, so every build of the same
// size is identical; a hash collision in the identifier space (probability
// ~n²/2^64) panics rather than silently merging two nodes.
func Build(n int) *Table {
	return BuildK(n, DefaultBucketSize)
}

// BuildK is Build with an explicit bucket capacity k ≥ 1.
func BuildK(n, k int) *Table {
	if n <= 0 {
		panic("kademlia: Build requires n > 0")
	}
	if k <= 0 {
		panic("kademlia: bucket capacity must be positive")
	}
	t := &Table{
		k:       k,
		ids:     make([]uint64, 0, n),
		alive:   make([]bool, 0, n),
		labels:  make(map[uint64]bool, n),
		buckets: make([][][]overlay.NodeID, 0, n),
		nbrs:    make([][]overlay.NodeID, 0, n),
	}
	for i := 0; i < n; i++ {
		t.addNode()
	}
	return t
}

// addNode appends one node, inserts it into every existing routing table,
// and fills its own buckets. Returns the new dense ID.
func (t *Table) addNode() overlay.NodeID {
	id := overlay.NodeID(len(t.ids))
	pos := overlay.HashNodeLabel("kad-node-", int(id))
	if t.labels[pos] {
		panic(fmt.Sprintf("kademlia: identifier collision at node %v", id))
	}
	t.labels[pos] = true
	t.ids = append(t.ids, pos)
	t.alive = append(t.alive, true)
	t.buckets = append(t.buckets, make([][]overlay.NodeID, idBits))
	t.nbrs = append(t.nbrs, nil)
	for m := range t.alive[:id] {
		mm := overlay.NodeID(m)
		if !t.alive[mm] {
			continue
		}
		t.insert(id, mm)
		if t.insert(mm, id) {
			t.rebuildNeighborCache(mm)
		}
	}
	t.rebuildNeighborCache(id)
	return id
}

// bucketIndex is the index of the highest bit at which a and b differ
// (0..63). Undefined for a == b; positions are collision-checked at birth.
func bucketIndex(a, b uint64) int { return bits.Len64(a^b) - 1 }

// insert places m into the right bucket of n, keeping the bucket sorted by
// XOR distance to n and capped at k entries (farthest evicted). Reports
// whether n's table changed.
func (t *Table) insert(n, m overlay.NodeID) bool {
	b := bucketIndex(t.ids[n], t.ids[m])
	bk := t.buckets[n][b]
	d := t.ids[n] ^ t.ids[m]
	i := sort.Search(len(bk), func(i int) bool { return t.ids[n]^t.ids[bk[i]] > d })
	if i >= t.k {
		return false // farther than every kept entry of a full bucket
	}
	bk = append(bk, overlay.NoNode)
	copy(bk[i+1:], bk[i:])
	bk[i] = m
	if len(bk) > t.k {
		bk = bk[:t.k]
	}
	t.buckets[n][b] = bk
	return true
}

// refillBucket recomputes bucket b of n from scratch: the k XOR-closest
// alive nodes whose identifiers first differ from n's at bit b. Used after
// a departure evicts a bucket entry, when a previously overflowed node may
// get promoted back in.
func (t *Table) refillBucket(n overlay.NodeID, b int) {
	t.buckets[n][b] = t.buckets[n][b][:0]
	for m := range t.alive {
		mm := overlay.NodeID(m)
		if mm == n || !t.alive[mm] || bucketIndex(t.ids[n], t.ids[mm]) != b {
			continue
		}
		t.insert(n, mm)
	}
}

// rebuildNeighborCache recomputes the sorted union of n's buckets.
func (t *Table) rebuildNeighborCache(n overlay.NodeID) {
	var out []overlay.NodeID
	for _, bk := range t.buckets[n] {
		out = append(out, bk...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	t.nbrs[n] = out
}

// Join adds a fresh node at the next dense ID and wires it into every
// routing table, returning its ID. The node's position is determined by
// its label, so re-running the same join sequence reproduces the overlay.
func (t *Table) Join() overlay.NodeID { return t.addNode() }

// JoinRand implements the uniform dynamic-overlay join hook. Kademlia
// placement is deterministic (label hash), so the randomness source is
// unused.
func (t *Table) JoinRand(*sim.Rand) overlay.NodeID { return t.Join() }

// Leave removes node n. Every bucket that listed n is refilled from the
// surviving membership (promoting nodes the cap had evicted), so routing
// convergence is preserved. It returns the alive node XOR-closest to the
// departed position — the natural heir for its keys, mirroring the CAN's
// takeover rule. Removing the last node panics.
func (t *Table) Leave(n overlay.NodeID) overlay.NodeID {
	if !t.Alive(n) {
		panic(fmt.Sprintf("kademlia: Leave of dead or unknown %v", n))
	}
	if t.Size() == 1 {
		panic("kademlia: cannot remove the last node")
	}
	t.alive[n] = false
	delete(t.labels, t.ids[n])
	t.buckets[n] = make([][]overlay.NodeID, idBits)
	t.nbrs[n] = nil
	for m := range t.alive {
		mm := overlay.NodeID(m)
		if !t.alive[mm] {
			continue
		}
		b := bucketIndex(t.ids[mm], t.ids[n])
		if !contains(t.buckets[mm][b], n) {
			continue
		}
		t.refillBucket(mm, b)
		t.rebuildNeighborCache(mm)
	}
	return t.closestAlive(t.ids[n])
}

func contains(s []overlay.NodeID, n overlay.NodeID) bool {
	for _, m := range s {
		if m == n {
			return true
		}
	}
	return false
}

// closestAlive returns the alive node whose identifier is XOR-closest to
// pos. Unique because positions are distinct.
func (t *Table) closestAlive(pos uint64) overlay.NodeID {
	best := overlay.NoNode
	var bestD uint64
	for i := range t.ids {
		n := overlay.NodeID(i)
		if !t.alive[n] {
			continue
		}
		if d := t.ids[n] ^ pos; best == overlay.NoNode || d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

// Alive reports whether n is currently a member.
func (t *Table) Alive(n overlay.NodeID) bool {
	return int(n) >= 0 && int(n) < len(t.alive) && t.alive[n]
}

// AliveNodes returns the IDs of all alive nodes in ascending order.
func (t *Table) AliveNodes() []overlay.NodeID {
	out := make([]overlay.NodeID, 0, len(t.alive))
	for i, a := range t.alive {
		if a {
			out = append(out, overlay.NodeID(i))
		}
	}
	return out
}

// Size returns the number of alive nodes.
func (t *Table) Size() int {
	n := 0
	for _, a := range t.alive {
		if a {
			n++
		}
	}
	return n
}

// ID returns n's position in the XOR identifier space.
func (t *Table) ID(n overlay.NodeID) uint64 { return t.ids[n] }

// Owner returns the authority node for key k: the alive node XOR-closest
// to the key's identifier.
func (t *Table) Owner(k overlay.Key) overlay.NodeID {
	return t.closestAlive(overlay.HashID(k))
}

// NextHop implements greedy Kademlia routing: forward to the neighbor
// XOR-closest to the key, or stop when no neighbor improves on n itself.
// Stopping is correct, not merely greedy: if any node y were closer to the
// target t than n, then either y first differs from n at the top bit b of
// id(n)⊕t — so bucket b is non-empty and all its members are closer — or y
// agrees with n at b and flips a lower bit c of the distance, in which case
// every member of non-empty bucket c is closer. Hence "no closer neighbor"
// implies n is the global owner.
func (t *Table) NextHop(n overlay.NodeID, k overlay.Key) (overlay.NodeID, bool) {
	if !t.Alive(n) {
		return overlay.NoNode, false
	}
	target := overlay.HashID(k)
	best, bestD := n, t.ids[n]^target
	for _, m := range t.nbrs[n] {
		if d := t.ids[m] ^ target; d < bestD {
			best, bestD = m, d
		}
	}
	return best, true
}

// Neighbors returns n's routing neighbors: the union of its bucket
// entries, sorted by ID. In CUP terms these are the peers with which n
// maintains query/update channels. The slice must not be mutated.
func (t *Table) Neighbors(n overlay.NodeID) []overlay.NodeID {
	return t.nbrs[n]
}

// CheckInvariants verifies structural invariants: buckets list only alive
// nodes in their correct range, sorted by distance and capped at k, each
// bucket holds exactly the k XOR-closest alive nodes of its range, and the
// neighbor cache matches the bucket union. Tests call this after mutation.
func (t *Table) CheckInvariants() error {
	for i := range t.ids {
		n := overlay.NodeID(i)
		if !t.alive[n] {
			if t.nbrs[n] != nil {
				return fmt.Errorf("dead %v has a neighbor cache", n)
			}
			continue
		}
		want := make(map[overlay.NodeID]bool)
		for b, bk := range t.buckets[n] {
			if len(bk) > t.k {
				return fmt.Errorf("%v bucket %d over capacity: %d", n, b, len(bk))
			}
			// Population of range b and how its k closest compare.
			var rangePop int
			var kept []overlay.NodeID
			for j := range t.ids {
				m := overlay.NodeID(j)
				if m == n || !t.alive[m] || bucketIndex(t.ids[n], t.ids[m]) != b {
					continue
				}
				rangePop++
				kept = append(kept, m)
			}
			sort.Slice(kept, func(a, c int) bool {
				return t.ids[n]^t.ids[kept[a]] < t.ids[n]^t.ids[kept[c]]
			})
			if rangePop > t.k {
				kept = kept[:t.k]
			}
			if len(bk) != len(kept) {
				return fmt.Errorf("%v bucket %d has %d entries, want %d", n, b, len(bk), len(kept))
			}
			for j, m := range bk {
				if m != kept[j] {
					return fmt.Errorf("%v bucket %d entry %d is %v, want %v (k-closest)", n, b, j, m, kept[j])
				}
				want[m] = true
			}
		}
		if len(t.nbrs[n]) != len(want) {
			return fmt.Errorf("%v neighbor cache has %d entries, want %d", n, len(t.nbrs[n]), len(want))
		}
		for j, m := range t.nbrs[n] {
			if !want[m] {
				return fmt.Errorf("%v neighbor cache lists %v, not in any bucket", n, m)
			}
			if j > 0 && t.nbrs[n][j-1] >= m {
				return fmt.Errorf("%v neighbor cache not sorted", n)
			}
		}
	}
	return nil
}
