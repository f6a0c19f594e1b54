// Command cupsim runs one CUP (or standard-caching) deployment through
// the unified cup.New API and prints the cost counters the paper
// reports. The -scenario flag picks a workload from the scenario
// registry (traffic generator + fault scripts); -transport replays the
// same scenario on the live goroutine network instead of the
// discrete-event simulator. -trace prints, after the report, the
// per-kind event totals and the cup.Trace propagation tree of every key
// (or of one): the paper's Figure 2 made inspectable. -telemetry serves
// /metrics, /trace and /debug/pprof during the run, and -serve keeps
// them up after it. Examples:
//
//	cupsim -nodes 1024 -rate 1 -policy second-chance
//	cupsim -nodes 1024 -rate 1000 -mode standard
//	cupsim -scenario flashcrowd -nodes 512
//	cupsim -scenario diurnal -transport live -nodes 64 -duration 120 -timescale 40
//	cupsim -nodes 64 -rate 5 -duration 600 -trace key-0
//	cupsim -transport live -nodes 32 -telemetry 127.0.0.1:9090 -serve 1m
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cup"
	"cup/internal/overlay"
	"cup/internal/policy"
)

func parsePolicy(name string) (policy.Policy, error) {
	switch {
	case name == "second-chance":
		return policy.SecondChance(), nil
	case name == "always":
		return policy.AlwaysKeep(), nil
	case name == "never":
		return policy.NeverKeep(), nil
	case strings.HasPrefix(name, "linear:"):
		a, err := strconv.ParseFloat(name[len("linear:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("bad linear alpha: %v", err)
		}
		return policy.Linear(a), nil
	case strings.HasPrefix(name, "log:"):
		a, err := strconv.ParseFloat(name[len("log:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("bad log alpha: %v", err)
		}
		return policy.Logarithmic(a), nil
	default:
		return nil, fmt.Errorf("unknown policy %q (second-chance|always|never|linear:A|log:A)", name)
	}
}

func main() {
	var (
		nodes     = flag.Int("nodes", 1024, "overlay size")
		overlayK  = flag.String("overlay", "can", "overlay substrate: "+overlay.KindList())
		keys      = flag.Int("keys", 1, "number of keys")
		zipf      = flag.Float64("zipf", 0, "Zipf skew for key popularity (0 = uniform)")
		replicas  = flag.Int("replicas", 1, "replicas per key")
		lifetime  = flag.Float64("lifetime", 300, "replica lifetime (s)")
		hop       = flag.Float64("hop", 0.1, "per-hop delay (s)")
		rate      = flag.Float64("rate", 1, "network query rate λ (queries/s)")
		duration  = flag.Float64("duration", 3000, "query window length (s)")
		mode      = flag.String("mode", "cup", "protocol: cup|standard")
		polName   = flag.String("policy", "second-chance", "cut-off policy")
		pushLevel = flag.Int("pushlevel", cup.UnlimitedPushLevel, "sender-side push level (-1 = unlimited)")
		naive     = flag.Bool("naive-cutoff", false, "disable the replica-independent cut-off fix")
		seed      = flag.Int64("seed", 1, "random seed")
		scenario  = flag.String("scenario", "", "scenario from the registry: "+strings.Join(cup.ScenarioNames(), "|")+" (empty = paper's Poisson workload)")
		transport = flag.String("transport", "sim", "transport: sim|live|tcp")
		timescale = flag.Float64("timescale", 40, "live transport: virtual scenario seconds replayed per wall-clock second")
		telemetry = flag.String("telemetry", "", "serve /metrics, /trace, /debug/pprof on this address during the run (e.g. :9090)")
		serveFor  = flag.Duration("serve", 0, "keep the -telemetry endpoint up this long after the run (e.g. 30s)")
		trace     = flag.String("trace", "", "after the report, print event totals and the span trees of all keys (all) or of one key (KEY)")
	)
	flag.Parse()

	opts := []cup.Option{
		cup.WithNodes(*nodes),
		cup.WithOverlay(*overlayK),
		cup.WithKeys(*keys),
		cup.WithZipf(*zipf),
		cup.WithReplicas(*replicas),
		cup.WithLifetime(cup.Seconds(*lifetime)),
		cup.WithQueryRate(*rate),
		cup.WithQueryDuration(cup.Seconds(*duration)),
		cup.WithSeed(*seed),
	}
	live := false
	switch *transport {
	case "sim", "simulated", "":
		opts = append(opts,
			cup.WithTransport(cup.Simulated),
			cup.WithHopDelay(cup.Seconds(*hop)))
	case "live":
		live = true
		opts = append(opts,
			cup.WithTransport(cup.Live),
			cup.WithTimeScale(*timescale))
		// The sim's 100 ms default hop would crawl in wall-clock time;
		// live keeps its own 1 ms default unless -hop is set explicitly.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "hop" {
				opts = append(opts, cup.WithHopDelay(cup.Seconds(*hop)))
			}
		})
	case "tcp", "live-tcp":
		live = true
		// TCP peers pay real loopback round-trips per hop; -hop does not
		// apply.
		opts = append(opts,
			cup.WithTransport(cup.LiveTCP),
			cup.WithTimeScale(*timescale))
	default:
		fmt.Fprintf(os.Stderr, "cupsim: unknown transport %q (sim|live|tcp)\n", *transport)
		os.Exit(2)
	}
	if *scenario == "" {
		*scenario = "paper"
	}
	sc, err := cup.BuildScenario(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cupsim:", err)
		os.Exit(2)
	}
	opts = append(opts, cup.WithTraffic(sc.Traffic), cup.WithFaults(sc.Faults...))

	switch *mode {
	case "cup":
		pol, err := parsePolicy(*polName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cupsim:", err)
			os.Exit(2)
		}
		opts = append(opts, cup.WithPolicy(pol), cup.WithPushLevel(*pushLevel))
		if *naive {
			opts = append(opts, cup.WithNaiveCutoff())
		}
	case "standard":
		opts = append(opts, cup.WithStandardCaching())
	default:
		fmt.Fprintf(os.Stderr, "cupsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	switch {
	case *telemetry != "":
		opts = append(opts, cup.WithTelemetry(*telemetry))
	case *trace != "":
		// The tracer rides the telemetry subsystem; collect without serving.
		opts = append(opts, cup.WithTelemetry(""))
	}

	d, err := cup.New(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cupsim:", err)
		os.Exit(2)
	}
	defer d.Close()
	if addr := d.TelemetryAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "cupsim: telemetry on http://%s (metrics, trace, pprof)\n", addr)
	}

	res, err := d.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cupsim:", err)
		os.Exit(1)
	}

	c, cfg := &res.Counters, res.Params.Config
	fmt.Printf("scenario=%s transport=%s nodes=%d overlay=%s keys=%d replicas=%d λ=%g mode=%s policy=%s pushlevel=%d seed=%d\n",
		*scenario, *transport, *nodes, *overlayK, *keys, *replicas, *rate, *mode, cfg.Policy.Name(), cfg.PushLevel, *seed)
	if live {
		// The live runtime reports message counts folded into the hop
		// fields; the per-query taxonomy is a simulator-side measurement.
		fmt.Printf("query msgs         %d\n", c.QueryHops)
		fmt.Printf("update msgs        %d\n", c.UpdateHops)
		fmt.Printf("clear-bit msgs     %d\n", c.ClearBitHops)
		fmt.Printf("total msgs         %d\n", c.TotalCost())
	} else {
		fmt.Printf("queries            %d\n", c.Queries)
		fmt.Printf("hits               %d (%.1f%%)\n", c.Hits, 100*float64(c.Hits)/max1(float64(c.Queries)))
		fmt.Printf("misses             %d (first-time %d, freshness %d, coalesced %d)\n",
			c.Misses(), c.FirstTimeMisses, c.FreshnessMisses, c.Coalesced)
		fmt.Printf("miss cost          %d hops (query %d + response %d)\n", c.MissCost(), c.QueryHops, c.ResponseHops)
		fmt.Printf("overhead           %d hops (update %d + clear-bit %d)\n", c.Overhead(), c.UpdateHops, c.ClearBitHops)
		fmt.Printf("total cost         %d hops\n", c.TotalCost())
		fmt.Printf("miss latency       %.2f hops/miss, %.3f s/miss\n", c.MissLatencyHops(), c.MissLatencySeconds())
		fmt.Printf("updates originated %d, dropped %d, expired-in-flight %d\n",
			c.UpdatesOriginated, c.UpdatesDropped, c.ExpiredUpdates)
		fmt.Printf("justified updates  %.1f%% (%d of %d classified)\n",
			100*c.JustifiedFraction(), c.JustifiedUpdates, c.JustifiedUpdates+c.UnjustifiedUpdates)
	}

	if *trace != "" {
		if err := printTraces(d, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "cupsim:", err)
			os.Exit(1)
		}
	}
	if addr := d.TelemetryAddr(); addr != "" && *serveFor > 0 {
		fmt.Fprintf(os.Stderr, "cupsim: serving telemetry on http://%s for %v\n", addr, *serveFor)
		time.Sleep(*serveFor)
	}
}

func max1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

// traceRows caps the span rows printed per propagation tree.
const traceRows = 40

// printTraces prints the run's per-kind event totals, then the span tree
// of key — of every traced key when key is "all".
func printTraces(d *cup.Deployment, key string) error {
	fmt.Printf("\nevents:")
	for _, kind := range cup.EventKinds {
		if n, ok := d.MetricValue("cup_events_total",
			cup.MetricLabel{Key: "kind", Value: kind.String()}); ok && n > 0 {
			fmt.Printf(" %s=%g", kind, n)
		}
	}
	fmt.Println()
	keys := d.TraceKeys()
	if key != "all" {
		keys = []cup.Key{cup.Key(key)}
	}
	for _, k := range keys {
		tr, ok := d.Trace(k)
		if !ok {
			return fmt.Errorf("no trace for key %q (traced: %v)", k, d.TraceKeys())
		}
		printTree(d, tr)
	}
	return nil
}

// printTree renders one span tree, already in depth order, indented by
// depth (unknown depths — nodes only ever seen querying — flat at the
// end).
func printTree(d *cup.Deployment, tr cup.Trace) {
	fmt.Printf("\npropagation tree for %q (authority %v): %d spans, %d cut-offs\n",
		tr.Key, tr.Root, len(tr.Spans), tr.Cutoffs)
	fmt.Printf("%-6s %-10s %-10s %-8s %-8s %-8s %-8s %-8s %-10s %s\n",
		"depth", "node", "parent", "queries", "answers", "pushes", "recv", "cutoffs", "window", "outcome")
	for i, s := range tr.Spans {
		if i >= traceRows {
			fmt.Printf("… %d more spans\n", len(tr.Spans)-i)
			break
		}
		fmt.Print(strings.Repeat("  ", max(s.Depth, 0)))
		parent := "-"
		if s.Depth > 0 {
			parent = fmt.Sprint(s.Parent)
		}
		fmt.Printf("%-6d %-10v %-10s %-8d %-8d %-8d %-8d %-8d %-10s %s\n",
			s.Depth, s.Node, parent, s.Queries, s.Answered, s.Pushes, s.Receives, s.Cutoffs,
			fmt.Sprintf("%.0f-%.0fs", float64(s.First), float64(s.Last)), s.Outcome)
	}
	fmt.Printf("tree coverage: %d of %d nodes (%.1f%%)\n",
		len(tr.Spans), d.Size(), 100*float64(len(tr.Spans))/float64(d.Size()))
}
