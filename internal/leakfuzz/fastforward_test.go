package leakfuzz

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cpu/cputest"
	"repro/internal/isa"
)

// ffIterScale stretches each gene's iteration count so its loop runs
// long enough for the core's fast-forward to engage.
const ffIterScale = 200

// runGenomeAlone runs every gene of g, in order, as a lone loop: gene i
// on hardware thread i%2 while the other thread idles, each followed by
// an idle gap, so the run alternates the lone-loop and idle stretches
// the core's run loops fast-forward.
func runGenomeAlone(c *cpu.Core, g Genome) {
	for i, gene := range append(append([]Gene(nil), g.Prep...), g.Probe...) {
		c.Enqueue(i%2, isa.NewLoopStream(gene.blocks(), gene.Iters*ffIterScale), nil)
		c.RunUntilIdle(50_000_000)
		c.RunCycles(uint64(97 * (gene.Set + 1)))
	}
}

// FuzzFastForward checks the core's fast-forward against plain stepping
// on leakfuzz genomes: `go test -fuzz FuzzFastForward
// ./internal/leakfuzz`. Both runs must end in identical core state —
// every counter, recency stamp, queue, stream position and power-meter
// bit.
func FuzzFastForward(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 20, 6, 1, 4, 0, 20, 6, 2, 1})
	f.Add([]byte{1, 0, 9, 4, 10, 6, 0, 5, 3, 40, 1})
	f.Add([]byte{2, 1, 6, 5, 5, 0, 1, 24, 3, 3, 2, 1, 6, 5, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := DecodeGenome(data)
		fast := cpu.NewCore(cpu.Gold6226(), 1)
		runGenomeAlone(fast, g)
		was := cpu.SetPlainStepping(true)
		defer cpu.SetPlainStepping(was)
		plain := cpu.NewCore(cpu.Gold6226(), 1)
		runGenomeAlone(plain, g)
		if d := cputest.Diff(fast, plain); len(d) != 0 {
			t.Fatalf("fast-forwarded core differs from plain stepping (%s):\n%s", g.key(), strings.Join(d[:min(len(d), 20)], "\n"))
		}
	})
}
