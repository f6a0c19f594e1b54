// Package cup is the public façade of this repository: a complete Go
// implementation of CUP — Controlled Update Propagation in Peer-to-Peer
// Networks (Roussopoulos & Baker) — together with the substrates its
// evaluation needs: a discrete-event simulator, three structured overlays
// (a 2-D CAN, a Chord ring, and a Kademlia XOR-metric table) behind a
// pluggable registry, a TTL index-entry cache, incentive-based cut-off
// policies, the standard-caching baseline, workload/fault generators, and
// a live goroutine-per-node runtime.
//
// # One construction path
//
// New builds a Deployment on either transport from the same functional
// options; everything defaults to the paper's parameters:
//
//	d, err := cup.New(
//	        cup.WithTransport(cup.Live),        // or cup.Simulated (default)
//	        cup.WithOverlay("kademlia"),
//	        cup.WithNodes(256),
//	        cup.WithSeed(7),
//	)
//	defer d.Close()
//
// A Deployment exposes one application-facing client API regardless of
// transport — Lookup/LookupAt, Publish/Unpublish, Subscribe/Events — and
// one event stream (Event, Observer): query issued/answered, update
// pushed, cut-off fired, node joined/left, emitted by the protocol core
// itself so simulated and live runs are observable, and comparable,
// through the same surface.
//
// The paper's evaluation drives the simulated transport's scripted
// workload via Run:
//
//	d, err := cup.New(cup.WithQueryRate(10))
//	res, err := d.Run(ctx)
//
// Run executes one run. Sweeps of independent runs — every figure and
// table of §3 — belong to internal/experiment's Engine, which builds one
// Deployment per cell on a worker pool.
//
// # Scenarios
//
// Workloads are first-class and composable: a Traffic generates the
// client query stream (PoissonTraffic is the paper's §3.2 default;
// FlashCrowd, DiurnalWave, ZipfDrift, and ClosedLoop model other
// shapes), a Fault scripts interventions (CapacityFault, NodeChurn,
// ReplicaChurn) against the transport-agnostic FaultSurface, and a
// Scenario bundles the two. Install with WithTraffic / WithFaults /
// WithScenario; both transports consume them identically, the live one
// replaying the schedule in wall-clock time under WithTimeScale. The
// scenario registry (RegisterScenario, BuildScenario, ScenarioNames)
// backs the cupsim -scenario flag.
//
// The protocol core is a pure state machine (Node); both transports drive
// the same code, so simulation results transfer to the live runtime.
package cup

import (
	"cup/internal/cache"
	internal "cup/internal/cup"
	"cup/internal/metrics"
	"cup/internal/overlay"
)

// Re-exported protocol types. See cup/internal/cup for full documentation.
type (
	// NodeID identifies a peer in the overlay.
	NodeID = overlay.NodeID
	// Key names a content item in the overlay key space.
	Key = overlay.Key
	// Entry is one index entry: a key served by a replica until expiry.
	Entry = cache.Entry
	// Node is the CUP protocol state machine for one peer.
	Node = internal.Node
	// Config parameterizes a node (mode, policy, push level, cut-off).
	Config = internal.Config
	// Update is one update-channel message.
	Update = internal.Update
	// UpdateType classifies updates (first-time, delete, refresh, append).
	UpdateType = internal.UpdateType
	// Action is a side effect emitted by the state machine.
	Action = internal.Action
	// Result is a finished run's parameters and counters.
	Result = internal.Result
	// Counters aggregates the paper's cost metrics for one run.
	Counters = metrics.Counters
	// Limiter is the §2.8 outgoing-update queue controller.
	Limiter = internal.Limiter
	// RefreshPolicy configures §3.6 authority-side refresh handling.
	RefreshPolicy = internal.RefreshPolicy
	// LatencyModel yields per-link one-way latencies (internal/netmodel).
	LatencyModel = internal.LatencyModel
	// Event is one observation from a running deployment.
	Event = internal.Event
	// EventKind classifies deployment events.
	EventKind = internal.EventKind
	// Observer receives deployment events.
	Observer = internal.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = internal.ObserverFunc
)

// Update type constants (§2.4).
const (
	FirstTime = internal.FirstTime
	Delete    = internal.Delete
	Refresh   = internal.Refresh
	Append    = internal.Append
)

// Protocol modes.
const (
	ModeCUP      = internal.ModeCUP
	ModeStandard = internal.ModeStandard
)

// Event kinds carried by the deployment event bus.
const (
	EvQueryIssued    = internal.EvQueryIssued
	EvQueryAnswered  = internal.EvQueryAnswered
	EvUpdatePushed   = internal.EvUpdatePushed
	EvCutoffFired    = internal.EvCutoffFired
	EvNodeJoined     = internal.EvNodeJoined
	EvNodeLeft       = internal.EvNodeLeft
	EvQueryCoalesced = internal.EvQueryCoalesced
)

// EventKinds lists every event kind in declaration order.
var EventKinds = internal.EventKinds

// UnlimitedPushLevel disables the sender-side push-level cap.
const UnlimitedPushLevel = internal.UnlimitedPushLevel

// Defaults returns the paper's headline CUP configuration (second-chance
// cut-off, unlimited push level, replica-independent cut-off).
func Defaults() Config { return internal.Defaults() }

// Standard returns the expiration-based standard-caching baseline.
func Standard() Config { return internal.Standard() }

// NewLimiter returns an empty §2.8 outgoing-update queue controller.
func NewLimiter() *Limiter { return internal.NewLimiter() }

// ChurnCapable reports whether the named overlay kind supports §2.9
// membership changes.
func ChurnCapable(kind string) bool { return internal.ChurnCapable(kind) }
