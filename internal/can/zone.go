// Package can implements a two-dimensional content-addressable network
// (CAN) overlay in the style of Ratnasamy et al. [RFH+01] — the "bare-bones
// CAN" the CUP paper simulates. The unit square [0,1)² is a torus partitioned
// into rectangular zones, one primary owner per zone; keys hash to points and
// are owned by the node whose zone covers the point; routing forwards
// greedily to the neighbor whose zone is closest (torus metric) to the
// target point.
//
// Nothing here scans all nodes. Every zone came from halving another, so the
// joins form a binary split tree — an inner node is a cut {axis, mid}, a leaf
// names its zone's owner — and the owner of a point (Owner, every Join) is
// one descent. Leave relabels the departed node's leaves to its heir; the
// tree is never pruned. Neighbor sets are maintained, not rebuilt: a half's
// border is its parent zone's border plus the cut, across the torus seam too,
// so whatever abuts a half abutted the parent zone or is the other half, and
// a Join need only test the old owner's neighbors against the two halves. A
// Leave gives the heir the union of both sets and swaps victim for heir in
// the victim's neighbors' sets. Build is n joins, O(n log n) in all, and
// yields the same zones, owners and sets as an all-pairs abutment rebuild
// (the oracle in can_test.go).
package can

import (
	"fmt"
	"math"

	"cup/internal/overlay"
)

// Zone is a half-open axis-aligned rectangle [X0,X1) × [Y0,Y1) in the unit
// square. Zones never wrap around the torus edge: splitting only ever
// subdivides existing zones, and the initial zone is the whole square.
type Zone struct {
	X0, Y0, X1, Y1 float64
}

// FullZone covers the entire coordinate space.
func FullZone() Zone { return Zone{0, 0, 1, 1} }

// Contains reports whether p falls inside the zone.
func (z Zone) Contains(p overlay.Point) bool {
	return p.X >= z.X0 && p.X < z.X1 && p.Y >= z.Y0 && p.Y < z.Y1
}

// Area returns the zone's area.
func (z Zone) Area() float64 { return (z.X1 - z.X0) * (z.Y1 - z.Y0) }

// Valid reports whether the zone is non-empty and inside the unit square.
func (z Zone) Valid() bool {
	return z.X0 >= 0 && z.Y0 >= 0 && z.X1 <= 1 && z.Y1 <= 1 && z.X0 < z.X1 && z.Y0 < z.Y1
}

// String implements fmt.Stringer.
func (z Zone) String() string {
	return fmt.Sprintf("[%.4f,%.4f)×[%.4f,%.4f)", z.X0, z.X1, z.Y0, z.Y1)
}

// Split halves the zone across its longer dimension (ties split vertically,
// i.e. along X) and returns the two halves. This is the standard CAN join
// split; alternating dimensions keeps zones close to square, bounding route
// lengths at O(√n) for n nodes.
func (z Zone) Split() (a, b Zone) {
	a, b = z, z
	if axis, mid := z.cut(); axis == 0 {
		a.X1, b.X0 = mid, mid
	} else {
		a.Y1, b.Y0 = mid, mid
	}
	return a, b
}

// cut returns the axis (0 = X, 1 = Y) and the coordinate at which Split
// halves the zone.
func (z Zone) cut() (axis int32, mid float64) {
	if z.X1-z.X0 >= z.Y1-z.Y0 {
		return 0, (z.X0 + z.X1) / 2
	}
	return 1, (z.Y0 + z.Y1) / 2
}

// circGap returns the distance from coordinate x to the interval [a,b) on
// the unit circle; zero when x lies inside.
func circGap(x, a, b float64) float64 {
	if x >= a && x < b {
		return 0
	}
	da := circDist(x, a)
	db := circDist(x, b)
	if da < db {
		return da
	}
	return db
}

// circDist is the distance between two coordinates on the unit circle.
func circDist(u, v float64) float64 {
	d := math.Abs(u - v)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

// Dist returns the torus (wraparound) Euclidean distance from point p to
// the closest point of the zone; zero when p is inside.
func (z Zone) Dist(p overlay.Point) float64 {
	gx := circGap(p.X, z.X0, z.X1)
	gy := circGap(p.Y, z.Y0, z.Y1)
	return math.Hypot(gx, gy)
}

// spansAbut reports whether the 1-D half-open spans [a0,a1) and [b0,b1)
// share a boundary of positive length... they abut when one ends where the
// other begins (including across the torus seam at 0/1).
func spansAbut(a0, a1, b0, b1 float64) bool {
	return a1 == b0 || b1 == a0 ||
		(a1 == 1 && b0 == 0) || (b1 == 1 && a0 == 0)
}

// spansOverlap reports whether [a0,a1) and [b0,b1) overlap with positive
// length (torus seams do not create overlap: zones never wrap).
func spansOverlap(a0, a1, b0, b1 float64) bool {
	return a0 < b1 && b0 < a1
}

// Abuts reports whether two zones are CAN neighbors: they share a border
// segment of positive length — abutting in exactly one dimension while
// overlapping in the other. Corner-touching zones are not neighbors.
func (z Zone) Abuts(o Zone) bool {
	if spansAbut(z.X0, z.X1, o.X0, o.X1) && spansOverlap(z.Y0, z.Y1, o.Y0, o.Y1) {
		return true
	}
	if spansAbut(z.Y0, z.Y1, o.Y0, o.Y1) && spansOverlap(z.X0, z.X1, o.X0, o.X1) {
		return true
	}
	return false
}

// Overlaps reports whether two zones share interior points.
func (z Zone) Overlaps(o Zone) bool {
	return spansOverlap(z.X0, z.X1, o.X0, o.X1) && spansOverlap(z.Y0, z.Y1, o.Y0, o.Y1)
}
