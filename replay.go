package cup

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	internal "cup/internal/cup"
	"cup/internal/live"
	"cup/internal/overlay"
)

// runLive is the live transport's scenario runner, the wall-clock mirror
// of the simulator's scripted workload. After the replica births it
// replays one timeline: a refresh round every half lifetime, the traffic
// stream's arrivals and the fault scripts' interventions, each at its
// deadline (scenario seconds compressed by WithTimeScale) from the
// timeline's start. Like the simulator, it fires arrivals up to the
// window's end and faults up to the drain's, then waits for its lookups
// and settles.
func (d *Deployment) runLive(ctx context.Context) (*Result, error) {
	p, net := d.p, d.net
	scale := d.timeScale
	if scale <= 0 {
		scale = 1
	}
	wall := func(seconds float64) time.Duration {
		return time.Duration(seconds / scale * float64(time.Second))
	}

	// Returning cancels the lookups and closed-loop clients still out and
	// waits for them, so a failing fault ends the run at once.
	ctx, cancel := context.WithCancel(ctx)
	var lookups sync.WaitGroup
	defer func() {
		cancel()
		lookups.Wait()
	}()

	// Scripted replica births, as the simulator performs at t≈0, and
	// their refresh rounds at half the TTL: a refresh issued exactly at
	// expiry would still need to propagate, leaving caches a periodic
	// stale window the simulator's refresh-at-expiration (which is
	// instantaneous at the authority) does not have.
	keys := make([]Key, p.Keys)
	for i := range keys {
		keys[i] = internal.WorkloadKey(i)
	}
	life := max(wall(float64(p.Lifetime)), 100*time.Millisecond)
	publish := func() error {
		for _, k := range keys {
			for r := 0; r < p.Replicas; r++ {
				if err := d.Publish(ctx, k, r, internal.ReplicaAddr(r), life); err != nil {
					return fmt.Errorf("cup: scenario replica %q/%d: %w", k, r, err)
				}
			}
		}
		return nil
	}
	if err := publish(); err != nil {
		return nil, err
	}

	// Workload RNG and popularity map: seeded like the simulator's, so
	// live scenario replays are deterministic in shape.
	rng := rand.New(rand.NewSource(p.Seed))
	env := p.TrafficEnv(rng, net.Size(), keys, func() NodeID { return NodeID(rng.Intn(net.Size())) },
		internal.KeyPicker(rng, keys, p.ZipfSkew))
	end := float64(p.QueryStart + p.QueryDuration + p.Drain)
	surf := &liveSurface{ctx: ctx, n: net, keys: keys, replicas: p.Replicas, lifetime: life,
		rng: rand.New(rand.NewSource(p.Seed + 1))}

	// The fault timeline, in the simulator's firing order: by instant and,
	// at one instant, in expansion order, up to the simulator's end.
	var faults []FaultEvent
	for _, f := range p.Faults {
		for _, ev := range f.Schedule(env.Start, env.Duration) {
			if ev.At <= end {
				faults = append(faults, FaultEvent{At: ev.At, Do: func(s FaultSurface) error {
					if err := ev.Do(s); err != nil {
						return internal.FaultError(f.Name(), ev.At, err)
					}
					return nil
				}})
			}
		}
	}
	slices.SortStableFunc(faults, func(a, b FaultEvent) int { return cmp.Compare(a.At, b.At) })
	applyFault := func() error {
		f := faults[0]
		faults = faults[1:]
		return f.Do(surf)
	}

	// The traffic source: a stream pulled one arrival ahead, as the
	// simulator's startTraffic pulls it, or a closed loop's clients, which
	// answers drive and no schedule can; refresh rounds run to their
	// window's end (hold).
	start := time.Now()
	var (
		next QueryEvent
		more bool
		pull = func() {}
		hold time.Duration
	)
	if cl, ok := p.Traffic.(ClosedLoop); ok {
		hold = wall(env.End())
		startClients(ctx, net, cl, env, &lookups, start, wall)
	} else {
		stream := p.Traffic.Stream(env)
		pull = func() {
			next, more = stream.Next()
			more = more && next.At <= end
		}
		pull()
	}
	arrive := func() error {
		if at := pickAlive(net, next.Node, env.PickNode); at != overlay.NoNode {
			key := next.Key
			if key == "" {
				key = env.PickKey()
			}
			lookups.Add(1)
			go func() {
				defer lookups.Done()
				_, _ = net.Lookup(ctx, at, key)
			}()
		}
		pull()
		return nil
	}

	// Each turn fires the earliest event due; ties go to the refresh round,
	// then the fault, then the arrival.
	for round := time.Duration(1); ; {
		due, fire := round*life/2, publish
		switch {
		case more && wall(next.At) < due && (len(faults) == 0 || next.At < faults[0].At):
			due, fire = wall(next.At), arrive
		case len(faults) > 0 && wall(faults[0].At) < due:
			due, fire = wall(faults[0].At), applyFault
		case !more && len(faults) == 0 && due > hold:
			lookups.Wait()
			if err := d.Settle(ctx); err != nil {
				return nil, err
			}
			return &Result{Params: p, Counters: net.Counters()}, nil
		default:
			round++
		}
		if err := net.Sleep(ctx, time.Until(start.Add(due))); err != nil {
			return nil, err
		}
		if err := fire(); err != nil {
			return nil, err
		}
	}
}

// startClients starts one goroutine per closed-loop client, counted in
// wg: across the query window, each looks up, reads the answer, thinks,
// and repeats, so slow answers throttle the offered load. Each client
// owns a derived RNG and its own popularity-map picker (env.Rand and
// env.PickKey are not safe for concurrent draws), so the population is
// deterministic given the stream seed.
func startClients(ctx context.Context, net *live.Network, cl ClosedLoop, env internal.TrafficEnv, wg *sync.WaitGroup, start time.Time, wall func(float64) time.Duration) {
	clients, think := cl.Population()
	from, to := start.Add(wall(env.Start)), start.Add(wall(env.End()))
	for i := 0; i < clients; i++ {
		rng := rand.New(rand.NewSource(env.Rand.Int63()))
		pickKey := internal.KeyPicker(rng, env.Keys, env.ZipfSkew)
		wg.Add(1)
		go func() {
			defer wg.Done()
			window, cancel := context.WithDeadline(ctx, to)
			defer cancel()
			for err := net.Sleep(window, time.Until(from)); err == nil && window.Err() == nil; {
				at := pickAlive(net, AnyNode, func() NodeID { return NodeID(rng.Intn(net.Size())) })
				if at != overlay.NoNode {
					_, _ = net.Lookup(window, at, pickKey())
				}
				err = net.Sleep(window, wall(rng.ExpFloat64()*think))
			}
		}()
	}
}

// pickAlive returns at if it names a live member, else redraws with pick:
// under churn, dense IDs include departed peers. Bounded so a
// pathological population (everyone mid-departure) cannot spin forever.
func pickAlive(net *live.Network, at NodeID, pick func() NodeID) NodeID {
	for tries, limit := 0, 4*net.Size()+8; !net.IsAlive(at); tries++ {
		if tries == limit {
			return overlay.NoNode
		}
		at = pick()
	}
	return at
}

// liveSurface is the live network's FaultSurface: capacity
// interventions, replica churn and, on a dynamic overlay, §2.9
// membership churn all act on the running network. Operations the
// substrate cannot honor return descriptive errors. ctx is the run's: a
// capacity intervention waiting for a busy peer's lock ends with it.
type liveSurface struct {
	ctx      context.Context
	n        *live.Network
	keys     []Key
	replicas int
	lifetime time.Duration
	rng      *rand.Rand
}

func (s *liveSurface) Size() int            { return s.n.Size() }
func (s *liveSurface) Keys() []Key          { return s.keys }
func (s *liveSurface) Replicas() int        { return s.replicas }
func (s *liveSurface) Rand() *rand.Rand     { return s.rng }
func (s *liveSurface) Alive(id NodeID) bool { return s.n.IsAlive(id) }
func (s *liveSurface) Owner(key Key) NodeID { return s.n.Authority(key) }

// Join, Leave and the replica births and deaths run under background
// contexts: fault application has no per-event deadline, and network
// shutdown still cancels the underlying control operations.
func (s *liveSurface) Join() (NodeID, error) { return s.n.Join(context.Background()) }
func (s *liveSurface) Leave(id NodeID) error { return s.n.Leave(context.Background(), id) }

func (s *liveSurface) AddReplica(key Key, r int) {
	_ = s.n.AddReplicaCtx(context.Background(), key, r, internal.ReplicaAddr(r), s.lifetime)
}

func (s *liveSurface) RemoveReplica(key Key, r int) {
	_ = s.n.RemoveReplicaCtx(context.Background(), key, r)
}

func (s *liveSurface) SetCapacity(ids []NodeID, c float64) error {
	for _, id := range ids {
		if err := s.n.SetCapacity(s.ctx, id, c); err != nil {
			return err
		}
	}
	return nil
}
