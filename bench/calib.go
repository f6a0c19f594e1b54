package main

import (
	"time"
)

// The reference box is a two-core VM on a shared host, and what its
// neighbours do changes what a fixed piece of work costs there: the same
// GET hit, the same simulated cell and the same TCP lookup take between
// 1 and 2 times their best time, in episodes of tens of seconds to
// minutes, so a whole run sits inside one and no estimator within the
// run sees past it. An arithmetic loop and a memory copy do not feel the
// episodes; system calls, page faults and allocation do, and a loop of
// small allocations follows the workloads most closely (correlation
// 0.9 to 0.98 with the serving loop over 15 s stretches; dividing by it
// takes the spread of those stretches from 0.13–0.23 to 0.06). So every
// time the benchmark reports is divided by how slow the box was while it
// was taken, as that loop saw it in the same seconds. README.md has the
// measurements.

// sensitivity is the share of the loop's slowdown that is taken out of a
// time. The loop feels the episodes more than the workloads do: while it
// slows from 1 to 2, a GET hit slows to 1.5, a mixed request to 1.4, a
// simulated event to 1.9. Taking all of it out over-corrects the serving
// workloads as much as taking none of it leaves them exposed; a half
// leaves every workload within a tenth where it was within a half.
const sensitivity = 0.5

var refRing [4096][]byte

// refLoop is the fixed piece of work the box's speed is read from:
// 30 000 small allocations, each dropping an earlier one.
func refLoop() time.Duration {
	start := time.Now()
	for i := 0; i < 30_000; i++ {
		refRing[i&4095] = make([]byte, 64+(i&127))
	}
	return time.Since(start)
}

// boxSpeed collects samples of refLoop taken between the pieces of a
// timed region. nominal is what the loop takes in this kind of process
// on the reference box at its best — the loop's own collections make
// that differ between a process with a small heap, one with a large
// heap and one that has just collected — so that a figure reads as
// "µs on that box in that state"; an error in it shifts a workload's
// figures by a constant and no comparison between two commits.
type boxSpeed struct {
	nominal time.Duration
	us      []float64
}

func (b *boxSpeed) sample() { b.us = append(b.us, float64(refLoop().Nanoseconds())/1e3) }

// slowdown is the median sample over nominal: 1 on the reference box at
// its best, 2 while the box runs such work at half that speed.
func (b *boxSpeed) slowdown() float64 {
	return median(b.us) / (float64(b.nominal.Nanoseconds()) / 1e3)
}

// factor is what a time taken while the samples were is divided by.
func (b *boxSpeed) factor() float64 { return 1 + sensitivity*(b.slowdown()-1) }
