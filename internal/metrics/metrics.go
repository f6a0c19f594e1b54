// Package metrics collects the cost counters the CUP paper reports (§3.3):
// miss cost in hops, update-propagation and clear-bit overhead, total cost,
// hit/miss/freshness-miss counts, per-miss latency, and justified-update
// accounting. It also provides the plain-text table renderer used by
// cmd/cupbench to print the paper's tables and figure series, and the
// duration-tail summaries (Percentile) the bench harness reports for
// sweep scheduling.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Counters aggregates one run on any runtime. All hop counters count
// message transmissions over single overlay links. The protocol core
// counts every field where its event happens, except three only the
// simulator measures: MissLatencyTotal and MissesServed need each query's
// post time, which its driver keeps, and PiggybackedClearBits counts a
// mechanism only it models. Elsewhere they stay zero.
type Counters struct {
	// Queries is the number of local queries posted by clients.
	Queries uint64
	// Hits are queries answered instantly from a fresh local cache (or at
	// the authority itself). Misses = Queries - Hits.
	Hits uint64
	// FirstTimeMisses are misses at nodes that never held entries for the
	// key; FreshnessMisses are misses on expired-but-present entries (the
	// paper's [CK01b] freshness misses).
	FirstTimeMisses uint64
	FreshnessMisses uint64
	// Coalesced counts queries absorbed by an already-pending
	// Pending-First-Update flag somewhere along their path.
	Coalesced uint64

	// QueryHops are hops traveled upstream by query messages (miss cost).
	QueryHops uint64
	// ResponseHops are hops traveled downstream by updates that served a
	// pending query (miss cost).
	ResponseHops uint64
	// UpdateHops are hops traveled by proactive updates (CUP overhead).
	UpdateHops uint64
	// ClearBitHops are hops traveled by standalone clear-bit messages
	// (CUP overhead). PiggybackedClearBits counts clear-bits that rode a
	// carrier message for free (§2.7 piggybacking, when enabled).
	ClearBitHops         uint64
	PiggybackedClearBits uint64

	// UpdatesOriginated counts updates created at authority nodes;
	// UpdatesDropped counts proactive pushes suppressed by capacity limits.
	UpdatesOriginated uint64
	UpdatesDropped    uint64
	// ExpiredUpdates counts updates discarded on arrival because their
	// entries had already expired (§2.6 case 3).
	ExpiredUpdates uint64

	// JustifiedUpdates / UnjustifiedUpdates implement the paper's §3.1
	// accounting: a pushed update is justified when a query arrives at the
	// receiving node within the update's critical interval T. One still
	// inside its interval when the run ends is censored, not a failure,
	// and stays unclassified.
	JustifiedUpdates   uint64
	UnjustifiedUpdates uint64

	// MissLatencyTotal accumulates, per answered miss, the virtual seconds
	// between posting and response delivery; MissesServed counts them.
	MissLatencyTotal float64
	MissesServed     uint64
}

// Add folds o into c field by field — the merge step of a sweep's
// totals. Derived ratios (MissLatencyHops, JustifiedFraction, ...) are
// computed from the merged sums, so merging runs and then reading a
// ratio yields the workload-weighted mean across runs.
func (c *Counters) Add(o *Counters) {
	c.Queries += o.Queries
	c.Hits += o.Hits
	c.FirstTimeMisses += o.FirstTimeMisses
	c.FreshnessMisses += o.FreshnessMisses
	c.Coalesced += o.Coalesced
	c.QueryHops += o.QueryHops
	c.ResponseHops += o.ResponseHops
	c.UpdateHops += o.UpdateHops
	c.ClearBitHops += o.ClearBitHops
	c.PiggybackedClearBits += o.PiggybackedClearBits
	c.UpdatesOriginated += o.UpdatesOriginated
	c.UpdatesDropped += o.UpdatesDropped
	c.ExpiredUpdates += o.ExpiredUpdates
	c.JustifiedUpdates += o.JustifiedUpdates
	c.UnjustifiedUpdates += o.UnjustifiedUpdates
	c.MissLatencyTotal += o.MissLatencyTotal
	c.MissesServed += o.MissesServed
}

// Misses returns the number of queries not served from fresh local state.
func (c *Counters) Misses() uint64 { return c.Queries - c.Hits }

// MissCost returns the paper's miss cost: hops incurred by all misses.
func (c *Counters) MissCost() uint64 { return c.QueryHops + c.ResponseHops }

// Overhead returns CUP's propagation overhead in hops.
func (c *Counters) Overhead() uint64 { return c.UpdateHops + c.ClearBitHops }

// TotalCost returns miss cost plus overhead. For standard caching this
// equals the miss cost.
func (c *Counters) TotalCost() uint64 { return c.MissCost() + c.Overhead() }

// MissLatencyHops returns the average number of hops needed to handle a
// miss (the paper's query latency metric, Table 2 rows 2-3).
func (c *Counters) MissLatencyHops() float64 {
	if m := c.Misses(); m > 0 {
		return float64(c.MissCost()) / float64(m)
	}
	return 0
}

// MissLatencySeconds returns the average virtual-time latency per served
// miss.
func (c *Counters) MissLatencySeconds() float64 {
	if c.MissesServed > 0 {
		return c.MissLatencyTotal / float64(c.MissesServed)
	}
	return 0
}

// JustifiedFraction returns the fraction of classified proactive updates
// that were justified (§3.1).
func (c *Counters) JustifiedFraction() float64 {
	total := c.JustifiedUpdates + c.UnjustifiedUpdates
	if total == 0 {
		return 0
	}
	return float64(c.JustifiedUpdates) / float64(total)
}

// SavedMissRatio returns the paper's "investment return": saved miss hops
// relative to a baseline run, per overhead hop spent (Table 2 row 4).
func (c *Counters) SavedMissRatio(baseline *Counters) float64 {
	if c.Overhead() == 0 {
		return 0
	}
	saved := float64(baseline.MissCost()) - float64(c.MissCost())
	return saved / float64(c.Overhead())
}

// String summarizes the counters on one line.
func (c *Counters) String() string {
	return fmt.Sprintf(
		"queries=%d hits=%d misses=%d missCost=%d overhead=%d total=%d missLat=%.2fh",
		c.Queries, c.Hits, c.Misses(), c.MissCost(), c.Overhead(), c.TotalCost(),
		c.MissLatencyHops())
}

// Table is a simple column-aligned text table, used by the benchmark
// harness to print rows in the same layout as the paper's tables.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render draws the table with column alignment.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len([]rune(cell)); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1, nearest-rank) of a set
// of wall-clock samples — cupload's request latencies; q=1 is the
// slowest. The input is not modified; an empty set returns zero.
func Percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	// Nearest rank: ceil(q·n) converted to a zero-based index.
	rank := int(q * float64(len(sorted)))
	if float64(rank) < q*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// I formats an integer cell.
func I[T ~uint64 | ~int | ~int64](v T) string { return fmt.Sprintf("%d", int64(v)) }
