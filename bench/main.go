// Command bench is the CUP benchmark: five named workloads measured end
// to end and, in a separate traced run, layer by layer. See README.md
// for the workloads, the metrics and how they interact; BENCHMARK.json
// at the repository root is the contract the driver checks.
//
//	go run -C bench . -seed 1                  every workload, human report
//	go run -C bench . -workload serve-read     one workload; last line is the result JSON
//	go run -C bench . -workload sweep-1k -trace 1
//	go run -C bench . -agree out/results-seed1.json other.json
//	go run -C bench . -update-golden
//
// Each workload runs in a child process of this program, so its peak
// RSS and CPU time are its own.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout keeps one workload inside the driver's 180 s limit.
const childTimeout = 150 * time.Second

// runConfig is what a workload needs to know about this run.
type runConfig struct {
	seed         int64
	seconds      float64
	trace        bool
	updateGolden bool
	nproc        int
}

// region is the length of one timed region. A traced run measures
// twice, untraced and then traced, in the time of one run.
func (c runConfig) region() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// workload is one named set of inputs. Its run function builds the
// inputs from cfg.seed, measures, checks outputs and fills an outcome.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig, tr *tracer, out *outcome) error
}

var workloads = []workload{
	{"sweep-1k", runSweep1k},
	{"sweep-128k", runSweepDense},
	{"serve-read", runServeRead},
	{"serve-mixed", runServeMixed},
	{"live-tcp", runLiveTCP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name         = flag.String("workload", "", "run one workload (default: all)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 0, "how long a run measures (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 measures untraced, then traced, half the run each, and yields the per-layer metrics")
		agree        = flag.Bool("agree", false, "compare two result sets: -agree A.json B.json")
		updateGolden = flag.Bool("update-golden", false, "regenerate golden/*.json from this checkout (seed 1)")
		child        = flag.Bool("child", false, "internal: run the workload in this process and print its outcome")
	)
	flag.Parse()
	if err := enterBenchDir(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *agree {
		os.Exit(runAgree(os.Stdout, sp, flag.Args()))
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		updateGolden: *updateGolden, nproc: runtime.NumCPU(),
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *child {
		os.Exit(runChild(ctx, *name, cfg))
	}
	os.Exit(runParent(ctx, sp, *name, cfg))
}

// enterBenchDir makes the bench directory the working directory, from
// either it or the repository root, so golden/, out/ and the spec have
// one relative path each.
func enterBenchDir() error {
	for _, dir := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(dir, "golden")); err == nil {
			return os.Chdir(dir)
		}
	}
	return errors.New("run from the repository root or from bench/ (golden/ not found)")
}

// runChild executes one workload in this process and prints its outcome
// as JSON on standard output; diagnostics go to standard error.
func runChild(ctx context.Context, name string, cfg runConfig) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out := &outcome{
		Workload: name,
		E2E:      map[string]float64{},
		Layers:   map[string]float64{},
	}
	if err := w.run(ctx, cfg, tr, out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join("out", "trace-"+name+".json") // one span per line
		spans := tr.all()
		if !nested(spans) {
			out.fail("trace spans do not nest")
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: write trace: %v\n", name, err)
			return 1
		}
		out.note("%d spans written to bench/%s", len(spans), path)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	return 0
}

// runParent runs the named workload (or all), each in a child process,
// and prints the report.
func runParent(ctx context.Context, sp *spec, name string, cfg runConfig) int {
	todo := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		todo = []workload{w}
	}
	if cfg.updateGolden {
		cfg.seed, cfg.seconds, cfg.trace = goldenSeed, 1, false
		todo = []workload{workloads[0], workloads[1]}
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	hdr := header(cfg)
	fmt.Println("CUP benchmark:", headerLine(hdr))
	if err := buildCupd(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	set := &resultSet{Header: hdr, Workloads: map[string]*outcome{}}
	failed := false
	for _, w := range todo {
		out, err := spawnChild(ctx, w.name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		set.Workloads[w.name] = out
		out.report(os.Stdout, sp, cfg.trace)
		failed = failed || out.Failed > 0
	}
	if cfg.updateGolden {
		return 0
	}
	if name == "" {
		path := filepath.Join("out", fmt.Sprintf("results-seed%d.json", cfg.seed))
		if cfg.trace {
			path = filepath.Join("out", fmt.Sprintf("layers-seed%d.json", cfg.seed))
		}
		f, err := os.Create(path)
		if err == nil {
			err = errors.Join(set.encode(f), f.Close())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("\nresult set written to bench/%s\n", path)
		if failed {
			return 1
		}
		return 0
	}
	// One workload: the driver's contract is the last line of stdout.
	rl, err := set.Workloads[name].line(sp, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	raw, err := json.Marshal(rl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", raw)
	return 0
}

// spawnChild re-executes this program for one workload in its own
// process group and kills the whole group — the child and any cupd it
// started — when ctx ends or the child overruns.
func spawnChild(ctx context.Context, name string, cfg runConfig) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	if cfg.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	// One core for the program under test and whatever drives it: on the
	// shared two-core box a workload that ran its collector, its server
	// and its generator side by side measured the host's scheduler, with
	// identical runs a third apart; on one core they are 3 % apart.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("stopped: %w", ctx.Err())
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	var out outcome
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("child outcome: %w", err)
	}
	return &out, nil
}

// header describes the box and the build, so a row of numbers names the
// conditions it was taken under.
func header(cfg runConfig) map[string]string {
	commit := "unknown"
	if raw, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(raw))
	}
	return map[string]string{
		"commit":     commit,
		"go":         runtime.Version(),
		"numcpu":     strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": "1", // of every child and of cupd: see spawnChild
		"pinned":     strconv.FormatBool(canPin()),
		"seed":       strconv.FormatInt(cfg.seed, 10),
		"seconds":    strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
	}
}
