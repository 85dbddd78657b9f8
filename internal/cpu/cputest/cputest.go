// Package cputest compares simulated cores in tests.
package cputest

import (
	"repro/internal/backend"
	"repro/internal/clonecheck"
	"repro/internal/cpu"
	"repro/internal/frontend"
)

// Diff describes every difference between the full states of two cores
// — every counter, stamp, queue, stream position, RNG and power-meter
// bit — and returns nil when they are equal. It first rewrites both
// cores' IDQ rings to start at slot zero, since a ring's head position
// and its slots outside the queued micro-ops are never read back, and it
// skips the DSB's eviction scratch buffers for the same reason. The
// rewrite leaves the queued micro-ops in place, so the cores remain
// usable.
func Diff(a, b *cpu.Core) []string {
	for _, c := range []*cpu.Core{a, b} {
		for t := range c.FE.IDQ {
			q := backend.NewIDQ(c.FE.P.IDQCapacity)
			for {
				in, ok := c.FE.IDQ[t].Pop()
				if !ok {
					break
				}
				q.Push(in)
			}
			c.FE.IDQ[t] = q
		}
	}
	return clonecheck.Diff(a, b, clonecheck.IgnoreFields(frontend.DSB{}, "evictScratch", "survScratch"))
}
