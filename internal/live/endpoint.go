package live

import (
	"context"
	"math/rand"
	"time"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Endpoint is the full client surface shared by the live transports:
// the goroutine-per-peer Network and the socket-per-peer TCPNetwork
// implement it identically, so the Deployment façade, the scenario
// engine, and the serving layer drive either without knowing which
// shell is underneath — the same interchangeability contract the
// simulator and Network already share.
type Endpoint interface {
	// Topology and membership.
	Size() int
	IsAlive(id overlay.NodeID) bool
	Authority(key overlay.Key) overlay.NodeID
	Join(ctx context.Context) (overlay.NodeID, error)
	Leave(ctx context.Context, id overlay.NodeID) error

	// Client operations.
	Lookup(ctx context.Context, id overlay.NodeID, key overlay.Key) ([]cache.Entry, error)
	AddReplica(key overlay.Key, replica int, addr string, lifetime time.Duration)
	AddReplicaCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error
	Refresh(key overlay.Key, replica int, addr string, lifetime time.Duration)
	RefreshCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error
	RemoveReplica(key overlay.Key, replica int)
	RemoveReplicaCtx(ctx context.Context, key overlay.Key, replica int) error
	SetCapacity(id overlay.NodeID, c float64)
	Inspect(id overlay.NodeID, fn func(*cup.Node))

	// Scenario engine.
	PumpTraffic(ctx context.Context, tr cup.Traffic, env cup.TrafficEnv, timeScale float64) error
	RunFaults(ctx context.Context, faults []cup.Fault, surf cup.FaultSurface, start, duration, timeScale float64) error
	FaultSurface(keys []overlay.Key, replicas int, lifetime time.Duration, rng *rand.Rand) cup.FaultSurface

	// Introspection and lifecycle.
	Stats() Stats
	InboxLoad() (used, capacity int)
	InboxLoadAt(id overlay.NodeID) (used, capacity int)
	Quiesced(window time.Duration) bool
	HopDelay() time.Duration
	Now() sim.Time
	IsClosed() bool
	Done() <-chan struct{}
	Close()
}

var (
	_ Endpoint = (*Network)(nil)
	_ Endpoint = (*TCPNetwork)(nil)
)
