// Scenario execution on the live transports: a wall-clock traffic pump
// replaying cup.Traffic streams, a goroutine-per-client closed loop,
// and the live implementation of cup.FaultSurface — the same Scenario
// values the discrete-event driver consumes, honoring context
// cancellation throughout. Everything here drives *Network, so every
// link shares the one scenario engine.
package live

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
)

// sleepUntil waits d, returning early (false) on ctx cancellation or
// network shutdown.
func sleepUntil(ctx context.Context, done <-chan struct{}, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	case <-done:
		return false
	}
}

// wall converts scenario seconds into wall-clock time under the given
// compression factor (timeScale virtual seconds replayed per wall
// second).
func wall(seconds, timeScale float64) time.Duration {
	if timeScale <= 0 {
		timeScale = 1
	}
	return time.Duration(seconds / timeScale * float64(time.Second))
}

// pickAlive redraws until the picked slot is a live member — under
// churn, dense IDs include departed peers. Bounded so a pathological
// population (everyone mid-departure) cannot spin forever.
func pickAlive(n *Network, pick func() overlay.NodeID) overlay.NodeID {
	for tries, limit := 0, 4*n.Size()+8; tries < limit; tries++ {
		if id := pick(); n.IsAlive(id) {
			return id
		}
	}
	return overlay.NoNode
}

// PumpTraffic replays a Traffic stream in wall-clock time: each
// inter-arrival gap is slept (compressed by timeScale) and the arrival
// becomes one client lookup at the event's node. Lookups are issued
// asynchronously — an open loop, like the simulator's — except for
// cup.ClosedLoop generators, which run one blocking request loop per
// client. PumpTraffic returns when the stream ends, ctx cancels, or the
// network closes.
func (n *Network) PumpTraffic(ctx context.Context, tr cup.Traffic, env cup.TrafficEnv, timeScale float64) error {
	if cl, ok := tr.(cup.ClosedLoop); ok {
		return pumpClosedLoop(ctx, n, cl, env, timeScale)
	}
	st := tr.Stream(env)
	var wg sync.WaitGroup
	defer wg.Wait()
	prev := 0.0
	for {
		ev, ok := st.Next()
		if !ok {
			return nil
		}
		if ev.At > prev {
			if !sleepUntil(ctx, n.closed, wall(ev.At-prev, timeScale)) {
				return ctx.Err()
			}
			prev = ev.At
		}
		nid := ev.Node
		if nid == cup.AnyNode || int(nid) < 0 || int(nid) >= n.Size() || !n.IsAlive(nid) {
			nid = pickAlive(n, env.PickNode)
		}
		if nid == overlay.NoNode {
			continue
		}
		key := ev.Key
		if key == "" {
			key = env.PickKey()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = n.Lookup(ctx, nid, key)
		}()
	}
}

// pumpClosedLoop runs one goroutine per closed-loop client: look up,
// read the answer, think, repeat — a true closed loop in which slow
// answers throttle the offered load. Each client owns a derived RNG so
// the population is deterministic given the stream seed.
func pumpClosedLoop(ctx context.Context, n *Network, cl cup.ClosedLoop, env cup.TrafficEnv, timeScale float64) error {
	clients, think := cl.Population()
	if !sleepUntil(ctx, n.closed, wall(env.Start, timeScale)) {
		return ctx.Err()
	}
	window, cancel := context.WithTimeout(ctx, wall(env.Duration, timeScale))
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		// Each client owns a derived RNG and its own popularity-map
		// picker: env.Rand (and env.PickKey) are not safe for
		// concurrent draws.
		rng := rand.New(rand.NewSource(env.Rand.Int63()))
		pickKey := cup.KeyPicker(rng, env.Keys, env.ZipfSkew)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if window.Err() != nil {
					return
				}
				at := pickAlive(n, func() overlay.NodeID {
					return overlay.NodeID(rng.Intn(n.Size()))
				})
				if at != overlay.NoNode {
					_, _ = n.Lookup(window, at, pickKey())
				}
				if !sleepUntil(window, n.closed, wall(rng.ExpFloat64()*think, timeScale)) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// RunFaults replays fault scripts against the live network: every
// script is expanded over the query window, the interventions merged
// into one timeline, and each applied at its (compressed) wall-clock
// instant. A failing intervention — including an unsupported operation
// on this surface — aborts the replay with a descriptive error; no
// scripted event is ever silently dropped. RunFaults returns when the
// timeline is exhausted, an event fails, ctx cancels, or the network
// closes.
func (n *Network) RunFaults(ctx context.Context, faults []cup.Fault, surf cup.FaultSurface, start, duration, timeScale float64) error {
	var events []timedFault
	for _, f := range faults {
		name := f.Name()
		for _, ev := range f.Schedule(start, duration) {
			events = append(events, timedFault{FaultEvent: ev, name: name})
		}
	}
	sortTimedFaults(events)
	prev := 0.0
	for _, ev := range events {
		if ev.At > prev {
			if !sleepUntil(ctx, n.closed, wall(ev.At-prev, timeScale)) {
				return ctx.Err()
			}
			prev = ev.At
		}
		if err := ev.Do(surf); err != nil {
			return fmt.Errorf("live: fault %q at t=%gs: %w", ev.name, ev.At, err)
		}
	}
	return nil
}

type timedFault struct {
	cup.FaultEvent
	name string
}

// sortTimedFaults orders the merged timeline by time, stably: faults
// due at the same instant apply in expansion order, as the simulator's
// scheduler applies them.
func sortTimedFaults(events []timedFault) {
	// Insertion sort keeps the merge stable and allocation-free; fault
	// timelines are tens of events, not thousands.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].At < events[j-1].At; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

// FaultSurface builds the live implementation of cup.FaultSurface:
// capacity interventions, replica churn, and — on a dynamic overlay —
// §2.9 membership churn all act on the running network. Operations the
// substrate cannot honor return descriptive errors. ctx is the fault
// replay's (see RunFaults): a capacity intervention waiting on a full
// inbox ends with it.
func (n *Network) FaultSurface(ctx context.Context, keys []overlay.Key, replicas int, lifetime time.Duration, rng *rand.Rand) cup.FaultSurface {
	return &liveSurface{ctx: ctx, n: n, keys: keys, replicas: replicas, lifetime: lifetime, rng: rng}
}

type liveSurface struct {
	ctx      context.Context
	n        *Network
	keys     []overlay.Key
	replicas int
	lifetime time.Duration
	rng      *rand.Rand
}

func (s *liveSurface) Size() int                            { return s.n.Size() }
func (s *liveSurface) Keys() []overlay.Key                  { return s.keys }
func (s *liveSurface) Replicas() int                        { return s.replicas }
func (s *liveSurface) Rand() *rand.Rand                     { return s.rng }
func (s *liveSurface) Alive(id overlay.NodeID) bool         { return s.n.IsAlive(id) }
func (s *liveSurface) Owner(key overlay.Key) overlay.NodeID { return s.n.Authority(key) }

// Join and Leave run under background contexts: fault application has
// no per-event deadline, and network shutdown still cancels the
// underlying control operations.
func (s *liveSurface) Join() (overlay.NodeID, error) { return s.n.Join(context.Background()) }
func (s *liveSurface) Leave(id overlay.NodeID) error { return s.n.Leave(context.Background(), id) }

func (s *liveSurface) RandomNodes(k int) []overlay.NodeID {
	perm := s.rng.Perm(s.n.Size())
	out := make([]overlay.NodeID, 0, k)
	for _, i := range perm {
		if len(out) == k {
			break
		}
		if id := overlay.NodeID(i); s.n.IsAlive(id) {
			out = append(out, id)
		}
	}
	return out
}

func (s *liveSurface) SetCapacity(ids []overlay.NodeID, c float64) error {
	for _, id := range ids {
		if err := s.n.SetCapacity(s.ctx, id, c); err != nil {
			return err
		}
	}
	return nil
}

// Replica births and deaths, like Join and Leave, have no per-event
// deadline.
func (s *liveSurface) AddReplica(key overlay.Key, r int) {
	_ = s.n.AddReplicaCtx(context.Background(), key, r, cup.ReplicaAddr(r), s.lifetime)
}

func (s *liveSurface) RemoveReplica(key overlay.Key, r int) {
	_ = s.n.RemoveReplicaCtx(context.Background(), key, r)
}
