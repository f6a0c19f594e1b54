// Command cupbench regenerates the tables and figures of the CUP paper's
// evaluation section, plus the ablations, at the paper's own parameters:
// 3000 s of querying, λ up to 1000 queries/s, networks up to 4096 nodes
// (about 20 s for everything on two cores). Sweeps run on the parallel
// experiment engine (-workers caps the pool); the tables are the same
// at any pool size, and the seven §3 artefacts at seed 1 are the files
// under internal/experiment/testdata/paper. -nodes runs every experiment
// at another network size; Table 2 and the churn ablation sweep their own
// sizes and ignore it.
//
//	cupbench                     # every experiment
//	cupbench -exp table1         # one experiment
//	cupbench -list               # list experiment names
//	cupbench -exp fig3 -nodes 1000000 -overlay chord -workers 1   # Figure 3 at n = 10^6
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cup/internal/experiment"
	"cup/internal/overlay"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment name or 'all'")
		seed    = flag.Int64("seed", 1, "random seed")
		ov      = flag.String("overlay", "", "substrate for all experiments ("+overlay.KindList()+"; default: the paper's CAN)")
		list    = flag.Bool("list", false, "list experiment names and exit")
		workers = flag.Int("workers", 0, "worker pool size for experiment sweeps (0 = GOMAXPROCS)")
		nodes   = flag.Int("nodes", 0, "network size for all experiments but table2 and churn (0 = the paper's 1024)")
	)
	flag.Parse()

	if *nodes < 0 {
		fmt.Fprintf(os.Stderr, "cupbench: node count %d is negative (0 keeps the paper's 1024)\n", *nodes)
		os.Exit(2)
	}

	if *ov != "" && !overlay.Registered(*ov) {
		fmt.Fprintf(os.Stderr, "cupbench: unknown overlay %q (registered: %s)\n", *ov, overlay.KindList())
		os.Exit(2)
	}

	if *list {
		for _, name := range experiment.Names() {
			fmt.Println(name)
		}
		return
	}

	names := experiment.Names()
	if *exp != "all" {
		if _, ok := experiment.Registry[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "cupbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}

	sc := experiment.Scale{Seed: *seed, Overlay: *ov, Nodes: *nodes, Parallelism: *workers}
	// Standard output is the tables and nothing else, a blank line
	// between two, so `-exp fig3` prints testdata/paper/fig3.txt byte for
	// byte; how long each took goes to standard error.
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		fmt.Print(experiment.Registry[name](sc).Render())
		fmt.Fprintf(os.Stderr, "[%s took %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}
