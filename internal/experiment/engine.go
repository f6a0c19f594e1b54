package experiment

import (
	"container/heap"
	"runtime"
	"sync"
	"time"

	"cup"
)

// The adaptive parallel sweep engine: every figure/table of the
// evaluation is a grid of independent simulated runs, so each generator
// decomposes its sweep into Trial units, submits them all up front, and
// assembles the table from the results in submission order. Trials
// execute on a bounded worker pool — each worker drives at most one
// cup.Deployment at a time, and every trial owns its own scheduler and
// RNG — so the rendered table is bit-identical to a sequential sweep at
// any parallelism (pinned by TestParallelSweepMatchesSequentialGolden).
//
// Dispatch is cost-ordered, not index-ordered: pending trials sit in a
// priority queue keyed by their estimated cost (cup.EstimateCost over
// the trial's options — λ, node count, replicas — unless the submitter
// supplies its own), and free workers always take the most expensive
// pending cell. A sweep whose tail hides one λ=1000 cell therefore
// starts that cell first instead of discovering it last with an idle
// pool (pinned by TestCostOrderedDispatchBeatsIndexOrder). Only the
// dispatch order changes; results still land in submission order.

// Trial is one independent run of a sweep: the cup.New options that
// fully determine it, including the seed they carry. Label is for
// diagnostics only. Cost biases the dispatch order — expensive first;
// zero means "estimate from the options".
type Trial struct {
	Label string
	Cost  float64
	Opts  []cup.Option
}

// Engine executes Trials on a bounded worker pool, expensive cells
// first.
type Engine struct {
	workers int
	// exec runs one trial; the default builds and runs a deployment.
	// Tests substitute synthetic workloads to pin scheduling behavior.
	exec func(Trial) *cup.Result

	mu sync.Mutex
	// pending.fifo restores index-order dispatch — the pre-adaptive
	// behavior — for scheduling comparisons in tests and benchmarks.
	pending pendingHeap
	seq     uint64
	running int

	// trialNs records every finished trial's wall time; the tail of a
	// sweep (its slowest cell) is what adaptive dispatch exists to hide.
	statMu  sync.Mutex
	trialNs []time.Duration
}

// NewEngine returns an engine running at most workers trials
// concurrently; workers <= 0 means GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		exec:    func(tr Trial) *cup.Result { return run(tr.Opts...) },
	}
}

// pendingTrial is one queued submission: its future, its dispatch key,
// and its submission sequence (the FIFO tiebreak, and the whole key in
// fifo mode).
type pendingTrial struct {
	tr   Trial
	fut  *Future
	cost float64
	seq  uint64
}

// pendingHeap orders pending trials most-expensive-first, submission
// order breaking ties, so equal-cost grids keep their historic index
// order.
type pendingHeap struct {
	items []*pendingTrial
	fifo  bool
}

func (h pendingHeap) Len() int { return len(h.items) }
func (h pendingHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if !h.fifo && a.cost != b.cost {
		return a.cost > b.cost
	}
	return a.seq < b.seq
}
func (h pendingHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *pendingHeap) Push(x any)   { h.items = append(h.items, x.(*pendingTrial)) }
func (h *pendingHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return it
}

// Future is a handle to one in-flight trial.
type Future struct {
	done chan struct{}
	res  *cup.Result
	// failure carries a worker panic to the collecting goroutine:
	// experiments treat unbuildable or failing runs as programming
	// errors, and the panic must not die with the worker.
	failure any
}

// Go submits a trial for execution and returns its future. The trial
// joins the pending queue at its (estimated) cost; a worker picks it up
// when it is the most expensive cell still waiting.
func (e *Engine) Go(tr Trial) *Future {
	f := &Future{done: make(chan struct{})}
	cost := tr.Cost
	if cost <= 0 {
		cost = cup.EstimateCost(tr.Opts...)
	}
	e.mu.Lock()
	e.seq++
	heap.Push(&e.pending, &pendingTrial{tr: tr, fut: f, cost: cost, seq: e.seq})
	if e.running < e.workers {
		e.running++
		go e.worker()
	}
	e.mu.Unlock()
	return f
}

// worker drains the pending queue, always taking the most expensive
// cell, and exits when the queue is empty.
func (e *Engine) worker() {
	for {
		e.mu.Lock()
		if e.pending.Len() == 0 {
			e.running--
			e.mu.Unlock()
			return
		}
		pt := heap.Pop(&e.pending).(*pendingTrial)
		e.mu.Unlock()
		e.runOne(pt)
	}
}

// runOne executes a dispatched trial and resolves its future. The
// wall-clock reads below time the host's execution of the trial for
// scheduler cost estimates; they never feed simulated results.
func (e *Engine) runOne(pt *pendingTrial) {
	start := time.Now() //cup:wallclock
	defer func() {
		elapsed := time.Since(start) //cup:wallclock
		e.statMu.Lock()
		e.trialNs = append(e.trialNs, elapsed)
		e.statMu.Unlock()
		close(pt.fut.done)
	}()
	defer func() { pt.fut.failure = recover() }()
	pt.fut.res = e.exec(pt.tr)
}

// Result blocks until the trial finishes and returns its result,
// re-raising any worker panic on the caller's goroutine.
func (f *Future) Result() *cup.Result {
	<-f.done
	if f.failure != nil {
		panic(f.failure)
	}
	return f.res
}

// RunAll executes trials and returns their results in trial order —
// whatever order dispatch ran them in.
func (e *Engine) RunAll(trials []Trial) []*cup.Result {
	futs := make([]*Future, len(trials))
	for i, tr := range trials {
		futs[i] = e.Go(tr)
	}
	out := make([]*cup.Result, len(trials))
	for i, f := range futs {
		out[i] = f.Result()
	}
	return out
}

// TrialTimes returns the wall time of every trial finished so far, in
// completion order.
func (e *Engine) TrialTimes() []time.Duration {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return append([]time.Duration(nil), e.trialNs...)
}

// submit is the generators' shorthand for an unlabeled trial.
func (e *Engine) submit(opts ...cup.Option) *Future {
	return e.Go(Trial{Opts: opts})
}

// engine builds the sweep engine for one experiment at the Scale's
// configured parallelism, reusing the Scale's shared pool when one is
// installed.
func (s Scale) engine() *Engine {
	if s.eng != nil {
		return s.eng
	}
	return NewEngine(s.Parallelism)
}
