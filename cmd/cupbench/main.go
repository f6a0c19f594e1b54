// Command cupbench regenerates the tables and figures of the CUP paper's
// evaluation section, plus the ablations, at the paper's own parameters:
// 3000 s of querying, λ up to 1000 queries/s, networks up to 4096 nodes
// (about 20 s for everything on two cores). Sweeps run on the parallel
// experiment engine (-workers caps the pool); the tables are the same
// at any pool size, and the seven §3 artefacts at seed 1 are the files
// under internal/experiment/testdata/paper.
//
//	cupbench                     # every experiment
//	cupbench -exp table1         # one experiment
//	cupbench -list               # list experiment names
//	cupbench -exp million        # the level sweep at n = 10^6 (minutes on CAN)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cup/internal/experiment"
	"cup/internal/metrics"
	"cup/internal/overlay"
)

// million names the scale demonstration, which stands alone: a
// million-node overlay per cell is too heavy to ride in "-exp all".
const million = "million"

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment name or 'all'")
		seed    = flag.Int64("seed", 1, "random seed")
		ov      = flag.String("overlay", "", "substrate for all experiments ("+overlay.KindList()+"; default: the paper's CAN)")
		list    = flag.Bool("list", false, "list experiment names and exit")
		workers = flag.Int("workers", 0, "worker pool size for experiment sweeps (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *ov != "" && !overlay.Registered(*ov) {
		fmt.Fprintf(os.Stderr, "cupbench: unknown overlay %q (registered: %s)\n", *ov, overlay.KindList())
		os.Exit(2)
	}

	if *list {
		for _, name := range experiment.Names() {
			fmt.Println(name)
		}
		fmt.Println(million)
		return
	}

	names := experiment.Names()
	if *exp != "all" {
		if _, ok := experiment.Registry[*exp]; !ok && *exp != million {
			fmt.Fprintf(os.Stderr, "cupbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}

	sc := experiment.Scale{Seed: *seed, Overlay: *ov, Parallelism: *workers}
	// Standard output is the tables and nothing else, a blank line
	// between two, so `-exp fig3` prints testdata/paper/fig3.txt byte for
	// byte; how long each took goes to standard error.
	for i, name := range names {
		gen := experiment.Registry[name]
		if name == million {
			gen = func(sc experiment.Scale) *metrics.Table {
				return experiment.MillionSweep(sc, experiment.MillionNodes)
			}
		}
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		fmt.Print(gen(sc).Render())
		fmt.Fprintf(os.Stderr, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}
