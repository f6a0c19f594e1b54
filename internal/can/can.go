package can

import (
	"fmt"
	"slices"

	"cup/internal/overlay"
	"cup/internal/sim"
)

// Network is a 2-D CAN overlay. Nodes are dense overlay.NodeIDs; each alive
// node owns one or more zones (more than one only after absorbing a departed
// neighbor's zones, the paper's §2.9 takeover). Network implements
// overlay.Overlay.
type Network struct {
	zones     [][]Zone           // per node; empty ⇒ departed
	neighbors [][]overlay.NodeID // per node, sorted, alive only
	tree      []treeNode         // the split tree; tree[0] is the whole square
}

// treeNode is one node of the split tree. A leaf (lo == 0; the root is
// nobody's child) is a zone and v its owner. An inner node is a zone that was
// split at coordinate mid of axis v (0 = X, 1 = Y): child lo lies below mid,
// child lo+1 at or above it.
type treeNode struct {
	mid float64
	lo  int32
	v   int32
}

var _ overlay.Overlay = (*Network)(nil)

// newNetwork returns the one-node network, with room for n nodes.
func newNetwork(n int) *Network {
	c := &Network{
		zones:     make([][]Zone, 1, n),
		neighbors: make([][]overlay.NodeID, 1, n),
		tree:      make([]treeNode, 1, 2*n-1),
	}
	c.zones[0] = []Zone{FullZone()}
	return c
}

// Build constructs a CAN of n nodes by the standard join procedure: node 0
// owns the whole space; each subsequent node picks a uniformly random point
// (from r) and splits the zone of the point's current owner. This mirrors
// the paper's dynamically allocated index partitions.
func Build(n int, r *sim.Rand) *Network {
	if n <= 0 {
		panic("can: Build requires n > 0")
	}
	c := newNetwork(n)
	for i := 1; i < n; i++ {
		c.JoinRand(r)
	}
	c.pack()
	return c
}

// BuildBalanced constructs a perfectly balanced CAN of n = 2^k nodes by
// recursive halving. Useful for tests that need exact geometry.
func BuildBalanced(n int) *Network {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("can: BuildBalanced requires a power of two, got %d", n))
	}
	c := newNetwork(n)
	for m := 1; m < n; m *= 2 {
		for i := 0; i < m; i++ {
			z := c.zones[i][0]
			c.Join(overlay.Point{X: z.X0, Y: z.Y0})
		}
	}
	c.pack()
	return c
}

// pack moves the neighbor sets, grown one append at a time, into a single
// exact-size array. Each set's capacity is its length, so a later insert
// reallocates that set instead of running into the next one.
func (c *Network) pack() {
	total := 0
	for _, s := range c.neighbors {
		total += len(s)
	}
	all := make([]overlay.NodeID, 0, total)
	for i, s := range c.neighbors {
		all = append(all, s...)
		c.neighbors[i] = all[len(all)-len(s) : len(all) : len(all)]
	}
}

// Join dynamically adds a node at point p, returning its ID: the zone that
// contains p is halved and the joiner takes the half p lies in. Everything
// that abuts either half abutted the zone before the split or is the other
// half — a half's border is the zone's border plus the cut, across the torus
// seam too — so only the old owner, its neighbors and the joiner change sets.
func (c *Network) Join(p overlay.Point) overlay.NodeID {
	t := c.leafOf(p)
	owner, id := overlay.NodeID(c.tree[t].v), overlay.NodeID(len(c.zones))
	zi := slices.IndexFunc(c.zones[owner], func(z Zone) bool { return z.Contains(p) })
	if zi < 0 {
		panic(fmt.Sprintf("can: owner %v does not contain %v", owner, p))
	}
	z := c.zones[owner][zi]
	axis, mid := z.cut()
	keep, give := z.Split()
	below, above := owner, id
	if keep.Contains(p) {
		keep, give, below, above = give, keep, id, owner
	}
	c.tree[t] = treeNode{mid: mid, lo: int32(len(c.tree)), v: axis}
	c.tree = append(c.tree, treeNode{v: int32(below)}, treeNode{v: int32(above)})
	c.zones[owner][zi] = keep
	c.zones = append(c.zones, []Zone{give})

	// id is the largest ID so far, so appending it keeps a set sorted.
	old := c.neighbors[owner]
	mine := make([]overlay.NodeID, 0, len(old)+1)
	kept := old[:0]
	for _, m := range old {
		if slices.ContainsFunc(c.zones[m], give.Abuts) {
			mine = append(mine, m)
			c.neighbors[m] = append(c.neighbors[m], id)
		}
		if c.abuts(owner, m) {
			kept = append(kept, m)
		} else {
			c.neighbors[m] = remove(c.neighbors[m], owner)
		}
	}
	c.neighbors[owner] = append(kept, id)
	c.neighbors = append(c.neighbors, insert(mine, owner))
	return id
}

// insert adds v to the sorted set s unless present; remove deletes it if
// present. Both edit s where it lies when its capacity allows.
func insert(s []overlay.NodeID, v overlay.NodeID) []overlay.NodeID {
	if i, found := slices.BinarySearch(s, v); !found {
		s = slices.Insert(s, i, v)
	}
	return s
}

func remove(s []overlay.NodeID, v overlay.NodeID) []overlay.NodeID {
	if i, found := slices.BinarySearch(s, v); found {
		s = slices.Delete(s, i, i+1)
	}
	return s
}

// JoinRand joins at a uniformly random point drawn from rnd. This is the
// uniform dynamic-overlay join hook; Join remains for callers that choose
// the point.
func (c *Network) JoinRand(rnd *sim.Rand) overlay.NodeID {
	return c.Join(overlay.Point{X: rnd.Float64(), Y: rnd.Float64()})
}

// Leave removes node n, handing all its zones to the alive neighbor with
// the smallest total volume (the paper's takeover rule: "a neighboring node
// M takes over the departing node N's portion of the global index"). It
// returns the absorbing neighbor. Removing the last node panics.
func (c *Network) Leave(n overlay.NodeID) overlay.NodeID {
	if !c.Alive(n) {
		panic(fmt.Sprintf("can: Leave of dead or unknown %v", n))
	}
	nbrs := c.neighbors[n]
	if len(nbrs) == 0 {
		panic("can: cannot remove the last node")
	}
	heir := nbrs[0]
	best := c.volume(heir)
	for _, m := range nbrs[1:] {
		if v := c.volume(m); v < best {
			heir, best = m, v
		}
	}
	for _, z := range c.zones[n] {
		c.tree[c.leafOf(overlay.Point{X: z.X0, Y: z.Y0})].v = int32(heir)
	}
	c.zones[heir] = append(c.zones[heir], c.zones[n]...)
	// The heir now abuts what either abutted; n's neighbors list it for n.
	merged := remove(c.neighbors[heir], n)
	for _, m := range nbrs {
		if m != heir {
			merged = insert(merged, m)
			c.neighbors[m] = insert(remove(c.neighbors[m], n), heir)
		}
	}
	c.neighbors[heir] = merged
	c.zones[n], c.neighbors[n] = nil, nil
	return heir
}

// volume is the total area owned by n.
func (c *Network) volume(n overlay.NodeID) float64 {
	var v float64
	for _, z := range c.zones[n] {
		v += z.Area()
	}
	return v
}

// Alive reports whether n currently owns any zone.
func (c *Network) Alive(n overlay.NodeID) bool {
	return int(n) >= 0 && int(n) < len(c.zones) && len(c.zones[n]) > 0
}

// AliveNodes returns the IDs of all alive nodes in ascending order.
func (c *Network) AliveNodes() []overlay.NodeID {
	out := make([]overlay.NodeID, 0, len(c.zones))
	for i := range c.zones {
		if len(c.zones[i]) > 0 {
			out = append(out, overlay.NodeID(i))
		}
	}
	return out
}

// Size returns the number of alive nodes.
func (c *Network) Size() int {
	n := 0
	for i := range c.zones {
		if len(c.zones[i]) > 0 {
			n++
		}
	}
	return n
}

// Zones returns the zones owned by n (nil for departed nodes). The slice
// must not be mutated.
func (c *Network) Zones(n overlay.NodeID) []Zone { return c.zones[n] }

// leafOf descends the split tree to the leaf whose zone contains p.
func (c *Network) leafOf(p overlay.Point) int32 {
	if !FullZone().Contains(p) {
		panic(fmt.Sprintf("can: no zone contains %v", p))
	}
	t := int32(0)
	for c.tree[t].lo != 0 {
		nd := &c.tree[t]
		x := p.X
		if nd.v != 0 {
			x = p.Y
		}
		t = nd.lo
		if x >= nd.mid {
			t++
		}
	}
	return t
}

// Owner returns the authority node for key k.
func (c *Network) Owner(k overlay.Key) overlay.NodeID {
	return c.OwnerOfPoint(overlay.HashPoint(k))
}

// OwnerOfPoint returns the node whose zone contains p. Zones exactly tile
// the space, so exactly one node matches.
func (c *Network) OwnerOfPoint(p overlay.Point) overlay.NodeID {
	return overlay.NodeID(c.tree[c.leafOf(p)].v)
}

// Neighbors returns n's neighbor set (alive nodes whose zones abut n's),
// sorted. It is the network's own slice, edited where it lies: valid until
// the next Join or Leave, and never to be mutated by the caller.
func (c *Network) Neighbors(n overlay.NodeID) []overlay.NodeID {
	return c.neighbors[n]
}

// dist is the torus distance from node n's closest zone to p.
func (c *Network) dist(n overlay.NodeID, p overlay.Point) float64 {
	best := 2.0
	for _, z := range c.zones[n] {
		if d := z.Dist(p); d < best {
			best = d
		}
	}
	return best
}

// NextHop implements greedy CAN routing: forward to the neighbor whose zone
// is closest to the target point. Strict progress is preferred; when no
// neighbor is strictly closer (a measure-zero geometric tie), the
// equal-distance neighbor with the smallest ID below our own is taken, which
// cannot produce a two-cycle.
func (c *Network) NextHop(n overlay.NodeID, k overlay.Key) (overlay.NodeID, bool) {
	p := overlay.HashPoint(k)
	for _, z := range c.zones[n] {
		if z.Contains(p) {
			return n, true
		}
	}
	own := c.dist(n, p)
	best := overlay.NoNode
	bestD := own
	for _, m := range c.neighbors[n] {
		d := c.dist(m, p)
		if d < bestD || (d == bestD && best != overlay.NoNode && m < best) {
			best, bestD = m, d
		}
	}
	if best != overlay.NoNode {
		return best, true
	}
	// No strict progress available: take the smallest-ID equal-distance
	// neighbor smaller than ourselves, if any.
	for _, m := range c.neighbors[n] {
		if c.dist(m, p) == own && m < n {
			return m, true
		}
	}
	return overlay.NoNode, false
}

func (c *Network) abuts(a, b overlay.NodeID) bool {
	for _, za := range c.zones[a] {
		for _, zb := range c.zones[b] {
			if za.Abuts(zb) {
				return true
			}
		}
	}
	return false
}

// CheckInvariants verifies the structure in O(n log n): the split tree's
// leaves and the owned zones correspond one to one (so the zones tile the
// unit square), each inner node cuts where Split would, and every neighbor
// set is sorted, symmetric and exactly the alive nodes abutting — what is
// listed abuts, and a walk of the tree along each zone's border finds nothing
// unlisted. Tests call this after mutation.
func (c *Network) CheckInvariants() error {
	owned := 0
	for i := range c.zones {
		owned += len(c.zones[i])
	}
	if leaves := (len(c.tree) + 1) / 2; owned != leaves {
		return fmt.Errorf("%d zones owned, %d leaves in the split tree", owned, leaves)
	}
	if err := c.checkTree(0, FullZone()); err != nil {
		return err
	}
	for i := range c.zones {
		n := overlay.NodeID(i)
		if !c.Alive(n) && len(c.neighbors[n]) > 0 {
			return fmt.Errorf("departed %v lists neighbors %v", n, c.neighbors[n])
		}
		for j, m := range c.neighbors[n] {
			if j > 0 && m <= c.neighbors[n][j-1] {
				return fmt.Errorf("neighbors of %v not sorted: %v", n, c.neighbors[n])
			}
			if !c.Alive(m) {
				return fmt.Errorf("%v lists dead neighbor %v", n, m)
			}
			if !c.abuts(n, m) {
				return fmt.Errorf("%v lists non-abutting neighbor %v", n, m)
			}
			if _, found := slices.BinarySearch(c.neighbors[m], n); !found {
				return fmt.Errorf("neighbor relation asymmetric: %v -> %v", n, m)
			}
		}
		for _, z := range c.zones[n] {
			if err := c.checkBorder(n, z, 0, FullZone()); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkTree verifies the subtree at t, which covers z: inner nodes cut z
// where Split does, and a leaf's zone is one its owner holds. Distinct leaves
// cover distinct zones, so with equal counts the match is one to one.
func (c *Network) checkTree(t int32, z Zone) error {
	nd := c.tree[t]
	if nd.lo == 0 {
		if n := overlay.NodeID(nd.v); !z.Valid() || !c.Alive(n) || !slices.Contains(c.zones[n], z) {
			return fmt.Errorf("leaf %v names %v, which does not own it", z, n)
		}
		return nil
	}
	if axis, mid := z.cut(); axis != nd.v || mid != nd.mid {
		return fmt.Errorf("tree cuts %v at axis %d, %v", z, nd.v, nd.mid)
	}
	a, b := z.Split()
	if err := c.checkTree(nd.lo, a); err != nil {
		return err
	}
	return c.checkTree(nd.lo+1, b)
}

// checkBorder walks the subtree at t (covering r) down to the leaves that
// abut n's zone z, and reports one owned by a node n does not list. A subtree
// holding such a leaf overlaps z or abuts it, so the others are pruned.
func (c *Network) checkBorder(n overlay.NodeID, z Zone, t int32, r Zone) error {
	if !r.Abuts(z) && !r.Overlaps(z) {
		return nil
	}
	nd := c.tree[t]
	if nd.lo == 0 {
		if m := overlay.NodeID(nd.v); m != n && r.Abuts(z) {
			if _, found := slices.BinarySearch(c.neighbors[n], m); !found {
				return fmt.Errorf("%v abuts %v but does not list it", n, m)
			}
		}
		return nil
	}
	a, b := r.Split()
	if err := c.checkBorder(n, z, nd.lo, a); err != nil {
		return err
	}
	return c.checkBorder(n, z, nd.lo+1, b)
}
