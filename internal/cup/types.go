// Package cup implements the CUP protocol — Controlled Update Propagation —
// the primary contribution of Roussopoulos & Baker's paper. Every node
// maintains two logical channels per neighbor: a query channel carrying
// search queries upstream toward a key's authority node, and an update
// channel carrying query responses (first-time updates) and index-entry
// updates (deletes, refreshes, appends) downstream along reverse query
// paths. Nodes coalesce query bursts with a Pending-First-Update flag,
// register downstream interest in per-key interest bit vectors, and apply
// incentive-based cut-off policies to bound propagation.
//
// The protocol core (Node) is a pure, transport-independent state machine:
// handlers consume one message and return the actions (messages to send,
// local deliveries) the transport must perform. The discrete-event driver
// (Simulation, in driver.go) and the goroutine runtime (internal/live) are
// both thin shells around it.
package cup

import (
	"fmt"
	"sync/atomic"

	"cup/internal/cache"
	"cup/internal/overlay"
	"cup/internal/policy"
	"cup/internal/sim"
)

// UpdateType classifies updates per §2.4 of the paper.
type UpdateType int

const (
	// FirstTime updates are query responses traveling down the reverse
	// query path; they are always justified.
	FirstTime UpdateType = iota
	// Delete removes a cached index entry (replica gone or failed).
	Delete
	// Refresh extends the lifetime of an index entry, preventing
	// freshness misses.
	Refresh
	// Append adds an index entry for a new replica of the content.
	Append
)

// String implements fmt.Stringer.
func (t UpdateType) String() string {
	switch t {
	case FirstTime:
		return "first-time"
	case Delete:
		return "delete"
	case Refresh:
		return "refresh"
	case Append:
		return "append"
	default:
		return fmt.Sprintf("update(%d)", int(t))
	}
}

// Priority returns the §2.8 reordering rank under constrained capacity for
// latency/accuracy-sensitive applications: first-time updates first, then
// deletes, refreshes, appends. Lower is more urgent.
func (t UpdateType) Priority() int {
	switch t {
	case FirstTime:
		return 0
	case Delete:
		return 1
	case Refresh:
		return 2
	default:
		return 3
	}
}

// Update is one update message on an update channel.
type Update struct {
	Key  overlay.Key
	Type UpdateType
	// Entries is the payload: the full fresh set for FirstTime, the
	// refreshed/appended entry for Refresh/Append, empty for Delete.
	Entries []cache.Entry
	// Replica is the replica whose event triggered the update; -1 for
	// FirstTime responses.
	Replica int
	// Depth is the hop distance from the authority node of the node
	// *receiving* this message; the authority sends Depth 1 to its
	// neighbors and each forwarder increments it.
	Depth int
	// Expires is the instant after which the update is useless (§2.6 case
	// 3: expired updates are neither applied nor forwarded).
	Expires sim.Time
	// Lifetime, when positive on Refresh/Append updates, is the full
	// replica lifetime: each receiving cache stores the entry with its
	// *own* timestamp (§2.1 "a lifetime and a timestamp indicating the
	// time at which the lifetime was set"), so a pushed refresh restarts
	// the local clock. First-time responses instead inherit the remaining
	// lifetime of the serving cache's entry (the Cohen-Kaplan cascaded
	// caching semantics the paper discusses in §4).
	Lifetime sim.Duration
	// QueryID, when non-zero, marks this update as the response to one
	// specific un-coalesced query (standard caching's per-query open
	// connection, §4 "open-connection problem"). CUP responses leave it
	// zero: coalesced queries share one response fan-out.
	QueryID uint64
}

// ActionKind discriminates Action.
type ActionKind int

const (
	// ActSendQuery pushes a query for Key up the query channel to To.
	ActSendQuery ActionKind = iota
	// ActSendUpdate pushes Update down the update channel to To.
	ActSendUpdate
	// ActSendClearBit tells neighbor To to clear our interest bit for Key.
	ActSendClearBit
	// ActDeliverLocal answers local client connections waiting on Key.
	ActDeliverLocal
)

// Action is one side effect requested by the protocol state machine. The
// transport (simulator or live runtime) executes it.
type Action struct {
	Kind ActionKind
	Key  overlay.Key
	// Update is what an ActSendUpdate sends. It belongs to the emitting
	// node's owner and is valid as long as the handler result holding it
	// (see Node.HandleQuery); the sends of one result share it, and a
	// transport copies it into whatever it puts in flight.
	Update  *Update
	Entries []cache.Entry // ActDeliverLocal payload
	// QueryID tags ActSendQuery under standard caching, where every query
	// travels individually and its response retraces exactly its path.
	QueryID uint64
	To      overlay.NodeID
	// kid is Key in the emitting owner's intern table; only the simulator,
	// whose nodes all share one owner, hands it on to the next hop.
	kid KeyID
}

// Mode selects the caching protocol a node runs.
type Mode int

const (
	// ModeCUP is full CUP: interest registration, update propagation,
	// cut-off policies, clear-bits.
	ModeCUP Mode = iota
	// ModeStandard is the paper's baseline: expiration-based caching
	// along reverse query paths with no update propagation at all
	// (equivalent to CUP at push level 0).
	ModeStandard
)

// UnlimitedPushLevel disables the sender-side depth cap.
const UnlimitedPushLevel = -1

// Config parameterizes a Node. The zero value is not valid; use Defaults.
type Config struct {
	// Mode selects CUP or the standard-caching baseline.
	Mode Mode
	// Policy is the cut-off policy consulted on update arrivals with no
	// downstream interest (CUP only).
	Policy policy.Policy
	// PushLevel, when ≥ 0, stops proactive update propagation beyond this
	// depth from the authority (§3.3's push level). Responses to pending
	// queries always flow.
	PushLevel int
	// ReplicaIndependentCutoff applies the §3.6 fix: the cut-off decision
	// and popularity reset trigger only on updates for one designated
	// ("watched") replica per key, so the decision is independent of the
	// number of replicas.
	ReplicaIndependentCutoff bool
}

// Defaults returns the configuration used by the paper's headline CUP
// experiments: full CUP, second-chance cut-off, unlimited push level,
// replica-independent cut-off enabled.
func Defaults() Config {
	return Config{
		Mode:                     ModeCUP,
		Policy:                   policy.SecondChance(),
		PushLevel:                UnlimitedPushLevel,
		ReplicaIndependentCutoff: true,
	}
}

// Standard returns the standard-caching baseline configuration: query
// responses are cached only at the issuing node with their expiration
// times, and no updates propagate — the paper's push level 0.
func Standard() Config {
	return Config{Mode: ModeStandard, Policy: policy.NeverKeep(), PushLevel: 0}
}

// CachesAtDepth reports whether a node at hop distance d from the
// authority stores entries carried by a first-time update passing through
// it. Per §3.3, a push level of p confines both update propagation and the
// cache building done by responses to nodes within p hops of the
// authority; the query issuer always caches its own answer (that is
// standard caching's behavior, and push level 0 degenerates to exactly
// standard caching). Unlimited push level caches everywhere — CUP
// "asynchronously builds caches of index entries while answering search
// queries".
func (c Config) CachesAtDepth(d int, isIssuer bool) bool {
	if isIssuer {
		return true
	}
	if c.Mode == ModeStandard {
		return false
	}
	return c.PushLevel < 0 || d <= c.PushLevel
}

// Router resolves next hops for the protocol. Implementations must be
// deterministic for a fixed overlay topology.
type Router interface {
	// NextHopTowardOwner returns the neighbor of n on the path toward the
	// authority for k, or n itself when n is the authority.
	NextHopTowardOwner(n overlay.NodeID, k overlay.Key) overlay.NodeID
}

// OverlayRouter adapts an overlay.Overlay into a Router. It keeps no route
// table of its own: CUP routing is hash-deterministic, so a (node, key)
// next hop is immutable for a fixed topology, and each node caches it on
// the per-key state its handlers already hold (nodeEnv.nextHop), stamped with
// the router's topology epoch. Invalidate starts a new epoch, which makes
// every cached hop stale at once. Safe for concurrent use — the live
// runtime shares one router across every goroutine that runs a peer.
type OverlayRouter struct {
	ov overlay.Overlay
	// epoch counts topology changes; it starts at 1 so a zero stamp on a
	// key state means "never resolved".
	epoch atomic.Uint32
	// Dynamic disables next-hop caching for overlays under churn. Set it
	// before handlers run concurrently.
	Dynamic bool
}

// NewOverlayRouter wraps ov.
func NewOverlayRouter(ov overlay.Overlay) *OverlayRouter {
	r := &OverlayRouter{ov: ov}
	r.epoch.Store(1)
	return r
}

// NextHopTowardOwner implements Router by asking the overlay.
func (r *OverlayRouter) NextHopTowardOwner(n overlay.NodeID, k overlay.Key) overlay.NodeID {
	next, ok := r.ov.NextHop(n, k)
	if !ok {
		panic(fmt.Sprintf("cup: no route from %v toward %q", n, k))
	}
	return next
}

// Invalidate marks every next hop cached before it stale; call it after
// the overlay's topology changes.
func (r *OverlayRouter) Invalidate() { r.epoch.Add(1) }
