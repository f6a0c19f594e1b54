package cup

import (
	"fmt"
	"math"
	"math/rand"

	"cup/internal/overlay"
)

// This file is the traffic half of the public Scenario API: pluggable
// client-query generators consumed identically by the discrete-event
// driver (virtual time) and the live goroutine runtime (wall-clock
// time). The paper's own workload — Poisson arrivals over the
// configured popularity map (§3.2) — is one generator among several;
// PoissonTraffic replays the exact random-draw sequence the driver used
// when the loop was embedded, so the paper-default path stays
// bit-identical across the API inversion.

// AnyNode marks a QueryEvent's querying node as deployment-chosen: the
// runtime draws a uniformly random alive peer at delivery time.
const AnyNode = overlay.NodeID(-1)

// QueryEvent is one client query arrival produced by a Traffic
// generator.
type QueryEvent struct {
	// At is the arrival instant in seconds since the start of the run —
	// virtual seconds on the simulator, scaled wall-clock seconds on the
	// live transport. Events must be non-decreasing in At.
	At float64
	// Node is the peer the client connects to; AnyNode lets the
	// deployment pick a random alive peer.
	Node overlay.NodeID
	// Key is the queried key; empty draws from the run's configured
	// popularity map (uniform, or Zipf under WithZipf).
	Key overlay.Key
}

// TrafficEnv is the window a Traffic generator gets into one run: the
// deployment's seeded randomness, the workload shape, and the query
// window. All generator randomness must come from Rand (directly or via
// the Pick helpers) so identical seeds replay identical schedules.
type TrafficEnv struct {
	// Rand is the run's workload RNG. On the simulator it is shared with
	// the rest of the scripted workload; draws interleave with the
	// schedule exactly as emitted.
	Rand *rand.Rand
	// Nodes is the overlay size at bind time.
	Nodes int
	// Keys is the scripted workload's key set.
	Keys []overlay.Key
	// PickNode draws a uniformly random alive node from Rand.
	PickNode func() overlay.NodeID
	// PickKey draws a key from the run's configured popularity map.
	PickKey func() overlay.Key
	// ZipfSkew is the configured popularity skew (0 = uniform), so
	// concurrent consumers that cannot share Rand (live closed-loop
	// clients) can build their own equivalent picker via KeyPicker.
	ZipfSkew float64
	// Rate is the configured network-wide query rate λ (queries/s), the
	// default for generators that leave their own rate unset.
	Rate float64
	// Start and Duration bound the configured query window in seconds.
	Start    float64
	Duration float64
}

// End returns the end of the configured query window.
func (e TrafficEnv) End() float64 { return e.Start + e.Duration }

// TrafficStream yields successive query arrivals for one run. The
// runtime calls Next once before the first arrival and then at each
// arrival instant, so draws from TrafficEnv.Rand interleave with the
// rest of the schedule in emission order. A false return ends the
// workload.
type TrafficStream interface {
	Next() (QueryEvent, bool)
}

// Traffic generates a run's client query workload. Implementations are
// configuration values: Stream binds one to a concrete run and may be
// called once per run.
type Traffic interface {
	// Stream binds the generator to one run.
	Stream(env TrafficEnv) TrafficStream
}

// streamFunc adapts a closure to TrafficStream.
type streamFunc func() (QueryEvent, bool)

func (f streamFunc) Next() (QueryEvent, bool) { return f() }

// PoissonTraffic is the paper's default workload (§3.2): queries arrive
// network-wide as a Poisson process with rate λ across the configured
// query window, each from a uniformly random alive node for a
// popularity-map key. A non-positive rate falls back to the run's
// configured WithQueryRate. This generator reproduces the pre-Scenario
// driver loop draw-for-draw: same seed, bit-identical counters.
func PoissonTraffic(rate float64) Traffic { return poissonTraffic{rate: rate} }

type poissonTraffic struct{ rate float64 }

func (p poissonTraffic) Stream(env TrafficEnv) TrafficStream {
	rate := p.rate
	if rate <= 0 {
		rate = env.Rate
	}
	return &poissonStream{rand: env.Rand, pickNode: env.PickNode, pickKey: env.PickKey,
		rate: rate, at: env.Start, end: env.End()}
}

// poissonStream is PoissonTraffic bound to one run. It is a struct with a
// Next method rather than a streamFunc closure because the paper's grid
// calls it once per query.
type poissonStream struct {
	rand          *rand.Rand
	pickNode      func() overlay.NodeID
	pickKey       func() overlay.Key
	rate, at, end float64
}

func (p *poissonStream) Next() (QueryEvent, bool) {
	if p.rate <= 0 {
		return QueryEvent{}, false
	}
	// Draw order (gap, node, key) matches the embedded loop the
	// driver used before the Scenario API: the gap to arrival i+1
	// was drawn at arrival i, followed by the next arrival's node
	// and key picks.
	p.at += p.rand.ExpFloat64() / p.rate
	if p.at > p.end {
		return QueryEvent{}, false
	}
	return QueryEvent{At: p.at, Node: p.pickNode(), Key: p.pickKey()}, true
}

// FlashCrowd is the paper's motivating surge (§2.8): a quiet Poisson
// background plus a burst of Queries arrivals for one suddenly hot key
// at SurgeRate, starting at At. The zero value surges the first
// workload key mid-window at 100× the background rate.
type FlashCrowd struct {
	// BaseRate is the background query rate λ; non-positive uses the
	// run's configured rate.
	BaseRate float64
	// At is the surge start in seconds; zero starts one quarter into
	// the query window.
	At float64
	// SurgeRate is the arrival rate during the surge (queries/s); zero
	// uses 100× the background rate.
	SurgeRate float64
	// Queries is the surge size; zero means 1000.
	Queries int
	// Key is the hot key; empty uses the first workload key.
	Key overlay.Key
}

func (f FlashCrowd) Stream(env TrafficEnv) TrafficStream {
	base := f.BaseRate
	if base <= 0 {
		base = env.Rate
	}
	surgeRate := f.SurgeRate
	if surgeRate <= 0 {
		surgeRate = 100 * math.Max(base, 0.01)
	}
	surgeAt := f.At
	if surgeAt <= 0 {
		surgeAt = env.Start + env.Duration/4
	}
	remaining := f.Queries
	if remaining == 0 {
		remaining = 1000
	}
	hot := f.Key
	if hot == "" && len(env.Keys) > 0 {
		hot = env.Keys[0]
	}

	end := env.End()
	baseAt, surgeNext := env.Start, surgeAt
	baseDone := base <= 0
	if !baseDone {
		baseAt += env.Rand.ExpFloat64() / base
		baseDone = baseAt > end
	}
	return streamFunc(func() (QueryEvent, bool) {
		for {
			switch {
			case !baseDone && (remaining <= 0 || baseAt <= surgeNext):
				ev := QueryEvent{At: baseAt, Node: env.PickNode(), Key: env.PickKey()}
				baseAt += env.Rand.ExpFloat64() / base
				baseDone = baseAt > end
				return ev, true
			case remaining > 0:
				if surgeNext > end {
					remaining = 0 // surge outlived the window; drop the tail
					continue
				}
				ev := QueryEvent{At: surgeNext, Node: env.PickNode(), Key: hot}
				remaining--
				surgeNext += env.Rand.ExpFloat64() / surgeRate
				return ev, true
			default:
				return QueryEvent{}, false
			}
		}
	})
}

// DiurnalWave modulates a Poisson process sinusoidally around a mean
// rate — the day/night load cycle of a production service. Arrivals are
// generated by Lewis-Shedler thinning against the peak rate, so the
// instantaneous rate tracks λ(t) = Mean·(1 + Amplitude·sin(2πt/Period))
// exactly.
type DiurnalWave struct {
	// Mean is the average query rate λ; non-positive uses the run's
	// configured rate.
	Mean float64
	// Amplitude in [0, 1] scales the swing; zero means 0.8.
	Amplitude float64
	// Period is one full wave in seconds; zero fits three waves into
	// the query window.
	Period float64
}

func (w DiurnalWave) Stream(env TrafficEnv) TrafficStream {
	mean := w.Mean
	if mean <= 0 {
		mean = env.Rate
	}
	amp := w.Amplitude
	if amp <= 0 {
		amp = 0.8
	}
	if amp > 1 {
		amp = 1
	}
	period := w.Period
	if period <= 0 {
		period = env.Duration / 3
	}
	peak := mean * (1 + amp)
	at := env.Start
	end := env.End()
	return streamFunc(func() (QueryEvent, bool) {
		if peak <= 0 || period <= 0 {
			return QueryEvent{}, false
		}
		for {
			at += env.Rand.ExpFloat64() / peak
			if at > end {
				return QueryEvent{}, false
			}
			rate := mean * (1 + amp*math.Sin(2*math.Pi*(at-env.Start)/period))
			if env.Rand.Float64()*peak <= rate {
				return QueryEvent{At: at, Node: env.PickNode(), Key: env.PickKey()}, true
			}
		}
	})
}

// ZipfDrift keeps Poisson arrivals but rotates the Zipf popularity map
// every Shift seconds, so yesterday's hot key cools while a cold one
// heats up — the workload that punishes caches tuned to a static
// ranking. With fewer than two workload keys it degrades to plain
// Poisson traffic.
type ZipfDrift struct {
	// Rate is the query rate λ; non-positive uses the run's configured
	// rate.
	Rate float64
	// Skew is the Zipf exponent (>1 skews harder); zero means 1.2.
	Skew float64
	// Shift is how often the rank→key mapping rotates by one position;
	// zero shifts four times across the query window.
	Shift float64
}

func (z ZipfDrift) Stream(env TrafficEnv) TrafficStream {
	rate := z.Rate
	if rate <= 0 {
		rate = env.Rate
	}
	skew := z.Skew
	if skew <= 1 {
		skew = 1.2
	}
	shift := z.Shift
	if shift <= 0 {
		shift = env.Duration / 4
	}
	var zipf *rand.Zipf
	if len(env.Keys) > 1 {
		zipf = rand.NewZipf(env.Rand, skew, 1, uint64(len(env.Keys)-1))
	}
	at := env.Start
	end := env.End()
	return streamFunc(func() (QueryEvent, bool) {
		if rate <= 0 {
			return QueryEvent{}, false
		}
		at += env.Rand.ExpFloat64() / rate
		if at > end {
			return QueryEvent{}, false
		}
		node := env.PickNode()
		var key overlay.Key
		if zipf == nil {
			key = env.PickKey()
		} else {
			rank := int(zipf.Uint64())
			rot := int((at - env.Start) / shift)
			key = env.Keys[(rank+rot)%len(env.Keys)]
		}
		return QueryEvent{At: at, Node: node, Key: key}, true
	})
}

// ClosedLoop models think-time clients: Clients independent users each
// issue a query, read the answer, think for an exponentially
// distributed pause with mean Think seconds, and repeat across the
// query window. On the live transport each client is a goroutine that
// blocks on its lookup (a true closed loop); on the simulator responses
// resolve in virtual time negligible next to the think time, so the
// stream models each client as a renewal process.
type ClosedLoop struct {
	// Clients is the closed-loop population; zero means 16.
	Clients int
	// Think is the mean think time in seconds; zero means 1.
	Think float64
}

// Population returns the defaulted client count and mean think time
// (16 clients, 1 s) — shared by the simulator stream and the live
// per-client pump.
func (c ClosedLoop) Population() (int, float64) {
	clients, think := c.Clients, c.Think
	if clients <= 0 {
		clients = 16
	}
	if think <= 0 {
		think = 1
	}
	return clients, think
}

func (c ClosedLoop) Stream(env TrafficEnv) TrafficStream {
	clients, think := c.Population()
	next := make([]float64, clients)
	for i := range next {
		next[i] = env.Start + env.Rand.ExpFloat64()*think
	}
	end := env.End()
	return streamFunc(func() (QueryEvent, bool) {
		min := 0
		for i := 1; i < len(next); i++ {
			if next[i] < next[min] {
				min = i
			}
		}
		at := next[min]
		if at > end {
			return QueryEvent{}, false
		}
		next[min] = at + env.Rand.ExpFloat64()*think
		return QueryEvent{At: at, Node: env.PickNode(), Key: env.PickKey()}, true
	})
}

// ReplicaAddr synthesizes the address a scripted workload registers for
// replica r — the same scheme on both transports, so scenario runs are
// comparable across them.
func ReplicaAddr(r int) string {
	return fmt.Sprintf("10.%d.%d.%d", r/65536, (r/256)%256, r%256)
}

// KeyPicker returns the run's popularity-map key picker over keys,
// drawing from r: the single key, a Zipf-skewed draw when skew > 0 and
// more than one key exists, uniform otherwise. Every consumer — the
// discrete-event driver, the live scenario runner, per-client
// closed-loop goroutines — builds its picker here, so the popularity
// model cannot drift between transports.
func KeyPicker(r *rand.Rand, keys []overlay.Key, skew float64) func() overlay.Key {
	var zipf *rand.Zipf
	if len(keys) > 1 && skew > 0 {
		if skew <= 1 {
			skew = 1.0000001
		}
		zipf = rand.NewZipf(r, skew, 1, uint64(len(keys)-1))
	}
	return func() overlay.Key {
		switch {
		case len(keys) == 0:
			return ""
		case len(keys) == 1:
			return keys[0]
		case zipf != nil:
			return keys[zipf.Uint64()]
		default:
			return keys[r.Intn(len(keys))]
		}
	}
}
