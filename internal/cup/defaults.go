package cup

import (
	"time"

	"cup/internal/sim"
)

// This file is the single source of truth for the paper-default constants
// (§3.2) and runtime defaults shared by every transport. Both the
// discrete-event simulator (Params.WithDefaults) and the live goroutine
// runtime (live.Config) consume this table, so the two runtimes cannot
// drift apart in their defaulting.
//
// At runtime the effect of each parameter is observable through the
// telemetry registry (internal/obs, attached via cup.WithTelemetry);
// the comments below name the metric series that report each one.
const (
	// DefaultNodes is the paper's headline overlay size (n = 2^10).
	// Reported as the cup_nodes gauge; the tree depths it implies show
	// up in the cup_update_push_depth histogram (≈√n/2 hops on a 2-D
	// CAN).
	DefaultNodes = 1024
	// DefaultOverlayKind is the paper's substrate, a 2-D CAN.
	DefaultOverlayKind = "can"
	// DefaultKeys is the number of distinct workload keys.
	DefaultKeys = 1
	// DefaultReplicas is the number of replicas per key.
	DefaultReplicas = 1
	// DefaultLifetime is the replica lifetime: "the lifetime of replicas"
	// is 300 s throughout the paper's evaluation. Shorter lifetimes mean
	// more refresh pushes — visible as cup_updates_pushed_total{type=
	// "refresh"} — and, where interest has lapsed, more cut-offs
	// (cup_cutoffs_total).
	DefaultLifetime sim.Duration = 300
	// DefaultHopDelay is the simulator's per-hop network latency. It is
	// the unit of the cup_query_latency_seconds histogram: a miss that
	// travels h hops to an answer observes ≈ 2·h·DefaultHopDelay.
	DefaultHopDelay sim.Duration = 0.1
	// DefaultQueryRate is the network-wide Poisson query rate λ (q/s).
	// Drives cup_events_total{kind="query-issued"}; when λ outpaces the
	// answer latency, the herd effect appears as
	// cup_queries_coalesced_total{source="local"} (§2.4's pending-first
	// update coalescing).
	DefaultQueryRate float64 = 1
	// DefaultQueryDuration is the paper's query window ("3000 seconds of
	// querying").
	DefaultQueryDuration sim.Duration = 3000
	// DefaultPiggybackWindow is how long a clear-bit waits for a carrier
	// before traveling standalone (§2.7). Each fired cut-off increments
	// cup_cutoffs_total and cup_events_total{kind="cutoff-fired"};
	// cup.Trace marks the firing node's span outcome "cut-off".
	DefaultPiggybackWindow sim.Duration = 1
	// DefaultSeed drives all randomness when the caller leaves it unset.
	DefaultSeed int64 = 1

	// DefaultLiveHopDelay is the live runtime's wall-clock per-hop
	// latency. It deliberately differs from DefaultHopDelay: simulated
	// runs model a 100 ms WAN hop in virtual time, while the goroutine
	// runtime keeps demos and tests interactive.
	DefaultLiveHopDelay = time.Millisecond
	// DefaultInboxDepth bounds each live peer's mailbox. Live occupancy
	// against this bound is scraped as cup_live_inbox_used /
	// cup_live_inbox_capacity.
	DefaultInboxDepth = 1024

	// Serving-layer and smart-client defaults (internal/serve, client).
	// They sit in this table, next to the paper parameters they guard,
	// so the server's Retry-After arithmetic and the client's backoff
	// cannot drift apart across packages.

	// DefaultPromiseTTL is how long a granted population promise (the
	// justcache 202 "you upload" lease) stays exclusive before the next
	// POST /promise may claim the key. It is also the ceiling of the
	// Retry-After a conflicting client receives with its 409. Grants and
	// conflicts are counted as cup_serve_promises_total{outcome=...}.
	DefaultPromiseTTL = 2 * time.Second
	// DefaultServeQueryTimeout bounds one GET miss's journey through the
	// CUP query path before the server answers 504. It must comfortably
	// exceed the overlay's round trip (O(log n) hops × the hop delay) or
	// cold keys on slow networks would time out instead of missing.
	// Timed-out and answered GETs both land in
	// cup_http_request_seconds{route="get"}.
	DefaultServeQueryTimeout = 5 * time.Second
	// DefaultAdmitRate bounds update-injecting requests (PUT, DELETE,
	// POST /promise) admitted per second — the LOCKSS-style rate bound
	// that keeps external load from swamping the propagation tree. Reads
	// are not gated: CUP's query coalescing already bounds read-side
	// tree load to one upstream query per key. Rejections appear as
	// cup_serve_admission_rejected_total{reason="rate"}.
	DefaultAdmitRate float64 = 4096
	// DefaultAdmitBurst is the token-bucket depth over DefaultAdmitRate:
	// the write burst a quiet server absorbs before 429s begin.
	DefaultAdmitBurst = 1024
	// DefaultServeDrainTimeout bounds the graceful drain when a serving
	// deployment closes: listeners stop accepting immediately, in-flight
	// requests get this long to complete, then remaining connections are
	// force-closed. It exceeds DefaultServeQueryTimeout so a GET already
	// inside the CUP query path can finish (or 504) before the drain
	// gives up on it.
	DefaultServeDrainTimeout = 6 * time.Second
	// DefaultShedThreshold is the live inbox occupancy fraction
	// (cup_live_inbox_used / cup_live_inbox_capacity) above which the
	// server sheds all /v1 traffic with 503 rather than queue more work
	// onto saturated peer mailboxes. Sheds are counted as
	// cup_serve_admission_rejected_total{reason="overload"}.
	DefaultShedThreshold = 0.9
	// DefaultClientFanout is the smart client's rendezvous fan-out N:
	// the top-ranked host is the key's primary, the remaining N-1 are
	// replicas (justcache's default N = 2).
	DefaultClientFanout = 2
	// DefaultClientRetries bounds one Get/GetOrFill's promise-wait loop:
	// after this many 409-then-retry rounds the client reports ErrBusy
	// instead of spinning on a wedged grantee.
	DefaultClientRetries = 8
	// DefaultClientBackoff is the base of the client's jittered
	// exponential backoff between retry rounds; DefaultClientBackoffCap
	// caps the doubling so a long outage retries steadily instead of
	// sleeping for minutes.
	DefaultClientBackoff    = 25 * time.Millisecond
	DefaultClientBackoffCap = time.Second
)

// overlaySeedSalt decorrelates overlay construction from the workload's
// randomness stream.
const overlaySeedSalt = 0x5eed

// OverlaySeed derives the overlay-construction seed from a run seed. Both
// transports use it, so the same seed and options build the same topology
// whether a deployment is simulated or live — the event-parity tests
// depend on this.
func OverlaySeed(seed int64) int64 { return seed + overlaySeedSalt }
