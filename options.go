package cup

import (
	"fmt"
	"math"
	"time"

	internal "cup/internal/cup"
	"cup/internal/policy"
	"cup/internal/sim"
)

// Transport selects the substrate that executes a Deployment: the
// discrete-event simulator (virtual time, deterministic, single-threaded)
// or the live network of locked peers (wall-clock time, concurrent).
// Both run the identical protocol state machine and emit the identical
// event stream.
type Transport int

const (
	// Simulated runs the deployment on the discrete-event scheduler.
	Simulated Transport = iota
	// Live runs the deployment as one lock per peer, its hops delivered
	// in memory on their timers' goroutines.
	Live
	// LiveTCP runs the deployment as one OS socket per peer: every node
	// binds a loopback TCP listener and protocol messages travel as wire
	// frames. Same protocol core, same event stream, real serialization.
	LiveTCP
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case Live:
		return "live"
	case LiveTCP:
		return "live-tcp"
	}
	return "simulated"
}

// Option configures a Deployment built by New. Unset knobs fall back to
// the paper's defaults from the shared internal/cup defaults table — the
// same table for both transports, so they cannot drift.
type Option func(*options)

// options is the one shared configuration layer behind New. The
// sim-shaped parameter set is canonical; live-only knobs ride alongside.
type options struct {
	transport Transport
	p         internal.Params
	// liveHop is the wall-clock per-hop latency for the live transport;
	// p.HopDelay carries the same value in virtual seconds for the
	// simulator, so one WithHopDelay serves both.
	liveHop time.Duration
	// inboxDepth sizes each live peer's admission load; only tests set
	// it, and zero is internal/cup.DefaultInboxDepth.
	inboxDepth int
	// timeScale compresses scenario time on the live transport.
	timeScale float64
	// telemetry enables the internal/obs registry + collector + tracer;
	// a non-empty telemetryAddr additionally serves /metrics, /trace,
	// and /debug/pprof there.
	telemetry     bool
	telemetryAddr string
	// serving lists the WithServing listen addresses for the HTTP
	// serving layer (internal/serve); empty disables it. admitRate and
	// admitBurst shape its write-path token bucket (WithAdmitRate).
	serving    []string
	admitRate  float64
	admitBurst int
	// errs collects option-level validation failures; New reports them
	// all at once instead of building a broken deployment.
	errs []error
}

// reject records a validation failure for New to report.
func (o *options) reject(format string, args ...any) {
	o.errs = append(o.errs, fmt.Errorf("cup: "+format, args...))
}

// cfg lazily initializes the node configuration from Defaults so that
// field-level options (WithPolicy, WithPushLevel, ...) start from the
// paper's headline configuration instead of an invalid zero Config.
func (o *options) cfg() *Config {
	if o.p.Config.Policy == nil {
		o.p.Config = Defaults()
	}
	return &o.p.Config
}

// WithTransport selects Simulated (default) or Live execution.
func WithTransport(t Transport) Option {
	return func(o *options) { o.transport = t }
}

// WithLive is shorthand for WithTransport(Live).
func WithLive() Option { return WithTransport(Live) }

// WithNodes sets the overlay size (default 1024, the paper's n = 2^10).
// A non-positive count is a configuration error reported by New.
func WithNodes(n int) Option {
	return func(o *options) {
		if n <= 0 {
			o.reject("node count %d must be positive", n)
			return
		}
		o.p.Nodes = n
	}
}

// WithOverlay selects the routing substrate by its overlay-registry name:
// "can" (default), "chord", "kademlia", or any registered kind. An empty
// kind keeps the default.
func WithOverlay(kind string) Option {
	return func(o *options) { o.p.OverlayKind = kind }
}

// WithKeys sets the number of distinct workload keys (default 1). A
// non-positive count is a configuration error reported by New.
func WithKeys(n int) Option {
	return func(o *options) {
		if n <= 0 {
			o.reject("key count %d must be positive", n)
			return
		}
		o.p.Keys = n
	}
}

// WithZipf skews workload key popularity (0 = uniform). A negative
// skew is a configuration error reported by New.
func WithZipf(skew float64) Option {
	return func(o *options) {
		if skew < 0 {
			o.reject("Zipf skew %g must be non-negative", skew)
			return
		}
		o.p.ZipfSkew = skew
	}
}

// WithReplicas sets the number of replicas per workload key (default 1).
// A non-positive count is a configuration error reported by New.
func WithReplicas(n int) Option {
	return func(o *options) {
		if n <= 0 {
			o.reject("replica count %d must be positive", n)
			return
		}
		o.p.Replicas = n
	}
}

// WithLifetime sets the replica lifetime (default 300 s, the paper's).
// A non-positive lifetime is a configuration error reported by New.
func WithLifetime(d time.Duration) Option {
	return func(o *options) {
		if d <= 0 {
			o.reject("replica lifetime %v must be positive", d)
			return
		}
		o.p.Lifetime = sim.Duration(d.Seconds())
	}
}

// WithHopDelay sets the per-hop network latency for either transport: the
// simulator models it in virtual time (default 100 ms), the live network
// sleeps it in wall-clock time (default 1 ms).
func WithHopDelay(d time.Duration) Option {
	return func(o *options) {
		if d < 0 {
			o.reject("hop delay %v must be non-negative", d)
			return
		}
		o.p.HopDelay = sim.Duration(d.Seconds())
		o.liveHop = d
	}
}

// WithLatencyModel supplies heterogeneous per-link latencies (see
// internal/netmodel), overriding the scalar hop delay. Simulated only.
func WithLatencyModel(m LatencyModel) Option {
	return func(o *options) { o.p.Latency = m }
}

// WithQueryRate sets the network-wide Poisson query rate λ in queries/s
// for the scripted workload (default 1). A zero or negative rate is a
// configuration error reported by New: a Poisson process needs λ > 0.
func WithQueryRate(lambda float64) Option {
	return func(o *options) {
		if lambda <= 0 {
			o.reject("query rate %g must be positive", lambda)
			return
		}
		o.p.QueryRate = lambda
	}
}

// WithQueryDuration sets the query-window length (default 3000 s, the
// paper's window). The window starts one replica lifetime in, letting
// replicas register before queries arrive; WithLifetime moves both. A
// non-positive duration is a configuration error reported by New.
func WithQueryDuration(duration time.Duration) Option {
	return func(o *options) {
		if duration <= 0 {
			o.reject("query duration %v must be positive", duration)
			return
		}
		o.p.QueryDuration = sim.Duration(duration.Seconds())
	}
}

// WithPolicy sets the §3.4 cut-off policy on top of Defaults(). The
// field-level options below compose in order; WithStandardCaching
// replaces the whole configuration.
func WithPolicy(p Policy) Option {
	return func(o *options) { o.cfg().Policy = p }
}

// WithPushLevel caps proactive update propagation at this depth from the
// authority (§3.3); UnlimitedPushLevel disables the cap.
func WithPushLevel(level int) Option {
	return func(o *options) { o.cfg().PushLevel = level }
}

// WithStandardCaching runs the expiration-based baseline instead of CUP.
func WithStandardCaching() Option {
	return func(o *options) { o.p.Config = Standard() }
}

// WithNaiveCutoff disables the §3.6 replica-independent cut-off fix.
func WithNaiveCutoff() Option {
	return func(o *options) { o.cfg().ReplicaIndependentCutoff = false }
}

// WithRefreshPolicy applies the §3.6 authority-side refresh suppression
// and aggregation techniques. Simulated only.
func WithRefreshPolicy(rp RefreshPolicy) Option {
	return func(o *options) { o.p.RefreshPolicy = rp }
}

// WithPiggyback enables §2.7 clear-bit piggybacking with the given
// carrier window. Simulated only.
func WithPiggyback(window time.Duration) Option {
	return func(o *options) {
		o.p.PiggybackClearBits = true
		o.p.PiggybackWindow = sim.Duration(window.Seconds())
	}
}

// WithSeed drives all randomness — overlay construction (both
// transports, identical topology) and the simulated workload. Identical
// options give identical simulated runs.
func WithSeed(seed int64) Option {
	return func(o *options) { o.p.Seed = seed }
}

// WithTraffic installs a client-query generator for the scripted
// workload on either transport: the simulator schedules the stream in
// virtual time, the live runtime replays it in wall-clock time (see
// WithTimeScale) on one timeline with the refresh rounds and the fault
// scripts. Unset, the paper's Poisson generator runs at the configured
// query rate.
func WithTraffic(t Traffic) Option {
	return func(o *options) {
		if t == nil {
			o.reject("WithTraffic needs a generator (use PoissonTraffic for the paper default)")
			return
		}
		o.p.Traffic = t
	}
}

// WithFaults adds scripted fault interventions (capacity loss, node or
// replica churn) expanded over the query window; they compose with any
// traffic generator and run on both transports.
func WithFaults(faults ...Fault) Option {
	return func(o *options) {
		for _, f := range faults {
			if f == nil {
				o.reject("WithFaults got a nil fault script")
				return
			}
		}
		o.p.Faults = append(o.p.Faults, faults...)
	}
}

// WithTimeScale compresses scenario time on the live transport: scale
// virtual seconds of traffic and fault schedule replay per wall-clock
// second (default 1). The simulator ignores it — virtual time is
// already free. A non-positive scale is a configuration error.
func WithTimeScale(scale float64) Option {
	return func(o *options) {
		if scale <= 0 {
			o.reject("time scale %g must be positive", scale)
			return
		}
		o.timeScale = scale
	}
}

// WithoutWorkload skips the scripted workload (replica births and Poisson
// queries) on the simulated transport: the deployment starts idle and is
// driven through the client API (Lookup, Publish), exactly like a live
// one. The live transport is always workload-free.
func WithoutWorkload() Option {
	return func(o *options) { o.p.NoWorkload = true }
}

// WithDenseState does nothing: dense, integer-keyed node state is the
// only representation, for every run. The name stays because bench/
// calls it and only a [benchmark] PR may edit bench/; that PR drops the
// call and this option with it (ROADMAP item 4).
// ledger: only bench/ calls it, and tier-1 does not run bench/.
func WithDenseState() Option {
	return func(*options) {}
}

// Policy is a §3.4 cut-off policy (see internal/policy: SecondChance,
// Linear, Logarithmic, AlwaysKeep, NeverKeep).
type Policy = policy.Policy

// Seconds converts float seconds — the unit of the paper's parameters
// and of flag-driven callers — into the duration options' type.
func Seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// EstimateCost predicts the relative execution cost of the run a set of
// options describes — a dimensionless score, not a time. The adaptive
// experiment engine (internal/experiment) uses it to dispatch a sweep's
// expensive cells first, so one λ=1000 tail cell cannot idle the worker
// pool behind a queue of cheap ones; only the ordering matters, so the
// model is deliberately coarse: query arrivals and replica refreshes,
// each charged the overlay's O(log n) routing work. Invalid options
// score like their defaulted values — New is where validation lives.
func EstimateCost(opts ...Option) float64 {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	p := o.p.WithDefaults()
	hops := math.Log2(float64(p.Nodes) + 2)
	queries := p.QueryRate * float64(p.QueryDuration)
	span := float64(p.QueryStart + p.QueryDuration + p.Drain)
	refreshes := float64(p.Keys*p.Replicas) * (span/float64(p.Lifetime) + 1)
	return (queries + refreshes) * hops
}
