#!/usr/bin/env python3
"""A/B one measurement between two trees and give the perf-claim verdict.

Usage (from anywhere in the repository):

  scripts/ab.py [-base REV|DIR] [-rev REV|DIR] [-n PAIRS] ROW

ROW is one of

  gobench PKG PATTERN [go test flags]   an in-tree Benchmark* row
  paper                                 CPU samples of one paper pass
  fig3                                  Figure 3 at n = 10^6: wall, peak RSS
  bench WORKLOAD [bench flags]          a bench/ workload's end-to-end metrics

for example

  scripts/ab.py -base b270712 -rev f79c249 gobench ./internal/live \\
      '^BenchmarkChanLookup$' -cpu 1 -benchtime 20000x
  scripts/ab.py -n 10 bench sweep-128k -seed 1 -seconds 5

A side is a git revision, checked out with `git worktree` into a
temporary directory that is removed on exit, or an existing checkout's
directory. -base defaults to HEAD, -rev to the working tree. Each side
is built once; the pairs then alternate which side runs first. For
every metric (all are lower-is-better) the script prints each pair, the
medians with quartiles, the sign count and the verdict: "faster" when
-rev wins at least 9 pairs in 10 and its median beats -base's by more
than -base's interquartile range, "slower" by the same rule the other
way, "unresolved" otherwise.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

FIG3_ARGS = ["-exp", "fig3", "-nodes", "1000000", "-overlay", "chord", "-workers", "1"]
FIG3_GOLDEN = "internal/experiment/testdata/scale/fig3-chord-1000000.txt"


def sh(cmd, cwd, **kw):
    return subprocess.run(cmd, cwd=cwd, check=True, text=True, **kw)


def output(cmd, cwd):
    """Runs cmd in cwd and returns its standard output."""
    return sh(cmd, cwd, stdout=subprocess.PIPE).stdout


class Side:
    def __init__(self, name, spec, repo, scratch):
        self.name, self.worktree = name, None
        if spec is not None and os.path.isdir(spec):
            self.dir = os.path.abspath(spec)
        elif spec is None:
            self.dir = repo
        else:
            self.dir = os.path.join(scratch, name)
            sh(["git", "worktree", "add", "--detach", self.dir, spec], repo, stdout=subprocess.DEVNULL)
            self.worktree = self.dir
        self.bin = os.path.join(scratch, name + ".bin")

    def label(self):
        return f"{self.name}={self.dir}"


def build(row, side):
    kind = row[0]
    if kind == "gobench":
        sh(["go", "test", "-c", "-o", side.bin, row[1]], side.dir)
    elif kind == "paper":
        sh(["go", "test", "-c", "-o", side.bin, "./internal/experiment"], side.dir)
    elif kind == "fig3":
        sh(["go", "build", "-o", side.bin, "./cmd/cupbench"], side.dir)
    elif kind == "bench":
        sh(["go", "build", "-o", side.bin, "."], os.path.join(side.dir, "bench"))
    else:
        sys.exit(f"unknown row kind {kind!r}")


BENCH_LINE = re.compile(r"^(Benchmark\S+)\s+\d+\s+(.*)$")


def run(row, side, scratch):
    """Runs row once on side; returns {metric: value}."""
    kind = row[0]
    if kind == "gobench":
        args = ["-test.run", "^$", "-test.bench", row[2], "-test.benchmem"]
        rest = row[3:]
        for i in range(0, len(rest), 2):
            args += ["-test." + rest[i].lstrip("-"), rest[i + 1]]
        out = output([side.bin] + args, os.path.join(side.dir, row[1]))
        got = {}
        for line in out.splitlines():
            m = BENCH_LINE.match(line)
            if m:
                f = m.group(2).split()
                for v, unit in zip(f[::2], f[1::2]):
                    got[f"{m.group(1)} {unit}"] = float(v)
        return got
    if kind == "paper":
        prof = os.path.join(scratch, side.name + ".prof")
        cwd = os.path.join(side.dir, "internal/experiment")
        output([side.bin, "-test.run", "^TestPaperTablesMatchGolden$", "-test.count", "1",
                "-test.cpuprofile", prof], cwd)
        top = sh(["go", "tool", "pprof", "-top", side.bin, prof], cwd, capture_output=True).stdout
        m = re.search(r"Total samples = ([\d.]+)(ms|s|mins)", top)
        scale = {"ms": 1e-3, "s": 1, "mins": 60}[m.group(2)]
        return {"paper cpu_s": float(m.group(1)) * scale}
    if kind == "fig3":
        return run_fig3(side, scratch)
    if kind == "bench":
        cmd = [side.bin, "-workload", row[1]] + row[2:]
        out = output(cmd, os.path.join(side.dir, "bench"))
        res = json.loads(out.strip().splitlines()[-1])
        if not res.get("correct") or res.get("failed"):
            sys.exit(f"{side.name}: {row[1]} reported {res}")
        return {f"{row[1]} {k}": v["value"] for k, v in res["metrics"].items()}
    sys.exit(f"unknown row kind {kind!r}")


def run_fig3(side, scratch):
    # RUSAGE_CHILDREN's peak is over every child reaped so far, so each
    # run is timed and measured from a fresh interpreter of its own.
    out = os.path.join(scratch, side.name + ".fig3.txt")
    probe = ("import resource,subprocess,sys,time;t=time.perf_counter();"
             "subprocess.run(sys.argv[2:],stdout=open(sys.argv[1],'w'),check=True);"
             "print(time.perf_counter()-t,resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    wall, rss = output([sys.executable, "-c", probe, out, side.bin] + FIG3_ARGS, side.dir).split()
    with open(out) as got, open(os.path.join(side.dir, FIG3_GOLDEN)) as want:
        if got.read() != want.read():
            sys.exit(f"{side.name}: Figure 3 at 10^6 differs from {FIG3_GOLDEN}")
    return {"fig3 wall_s": float(wall), "fig3 peak_rss_mb": int(rss) / 1024}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(a, b):
    """The perf-claim rule for a lower-is-better metric: b against a."""
    need = math.ceil(0.9 * len(a))
    wins = sum(y < x for x, y in zip(a, b))
    losses = sum(y > x for x, y in zip(a, b))
    q1, q3 = quartiles(a)
    gap = statistics.median(a) - statistics.median(b)
    if wins >= need and gap > q3 - q1:
        return wins, losses, "faster"
    if losses >= need and -gap > q3 - q1:
        return wins, losses, "slower"
    return wins, losses, "unresolved"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-base", default="HEAD", help="git revision or directory (default HEAD)")
    ap.add_argument("-rev", default=None, help="git revision or directory (default: the working tree)")
    ap.add_argument("-n", type=int, default=10, help="pairs (default 10)")
    ap.add_argument("row", nargs=argparse.REMAINDER)
    opt = ap.parse_args()
    if not opt.row:
        ap.error("no row given")
    repo = sh(["git", "rev-parse", "--show-toplevel"], None, capture_output=True).stdout.strip()
    scratch = tempfile.mkdtemp(prefix="ab-")
    sides = []
    try:
        for name, spec in (("base", opt.base), ("rev", opt.rev)):
            sides.append(Side(name, spec, repo, scratch))
        for s in sides:
            print(f"building {s.label()}", file=sys.stderr)
            build(opt.row, s)
        series = {s.name: {} for s in sides}
        for i in range(opt.n):
            order = sides if i % 2 == 0 else sides[::-1]
            for s in order:
                for k, v in run(opt.row, s, scratch).items():
                    series[s.name].setdefault(k, []).append(v)
            print(f"pair {i + 1}/{opt.n} done ({order[0].name} first)", file=sys.stderr)
        report(series["base"], series["rev"])
    finally:
        for s in sides:
            if s.worktree:
                sh(["git", "worktree", "remove", "--force", s.worktree], repo)
        sh(["git", "worktree", "prune"], repo)
        shutil.rmtree(scratch, ignore_errors=True)


def report(base, rev):
    print(f"{'metric':44} {'pair':>4} {'base':>12} {'rev':>12}")
    for k in base:
        a, b = base[k], rev.get(k, [])
        if len(a) != len(b):
            print(f"{k}: {len(a)} base runs, {len(b)} rev runs; skipped")
            continue
        for i, (x, y) in enumerate(zip(a, b)):
            print(f"{k:44} {i + 1:>4} {x:>12.6g} {y:>12.6g}")
        qa, qb = quartiles(a), quartiles(b)
        wins, losses, v = verdict(a, b)
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma * 100 if ma else 0.0
        print(f"{k}: base median {ma:.6g} [{qa[0]:.6g}, {qa[1]:.6g}], rev median {mb:.6g} "
              f"[{qb[0]:.6g}, {qb[1]:.6g}] ({change:+.1f} %); rev lower in {wins}/{len(a)}, "
              f"higher in {losses}/{len(a)}: {v}")


if __name__ == "__main__":
    main()
