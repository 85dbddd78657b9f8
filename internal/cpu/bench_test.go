package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/victim"
)

// benchLoop is a representative attack working set: six aligned mix
// blocks chained into one loop, the shape every receiver pass executes.
func benchLoop() []*isa.Block {
	blocks := make([]*isa.Block, 6)
	for w := 0; w < 6; w++ {
		blocks[w] = isa.MixBlock(isa.AddrForSet(20, w))
	}
	isa.ChainLoop(blocks)
	return blocks
}

// benchSteps steps c b.N times, re-arming each thread in loops whose
// task has drained (a nil entry leaves that thread idle), and reports
// the host time per simulated cycle.
func benchSteps(b *testing.B, c *Core, loops [2][]*isa.Block) {
	b.ReportAllocs()
	b.ResetTimer()
	start := c.Cycle()
	for i := 0; i < b.N; i++ {
		for t, blocks := range loops {
			if blocks != nil && !c.Busy(t) {
				c.Enqueue(t, isa.NewLoopStream(blocks, 1_000_000), nil)
			}
		}
		c.Step()
	}
	cycles := float64(c.Cycle() - start)
	b.ReportMetric(cycles/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cycles, "ns/sim-cycle")
}

// BenchmarkCoreStep times the cycle stepper itself with a thread
// continuously fetching — the innermost loop of the whole simulator.
// The 30-µop loop locks the LSD, so this is the LSD delivery path.
// ns/op here is per simulated cycle; allocs/op must be ~0.
func BenchmarkCoreStep(b *testing.B) {
	benchSteps(b, NewCore(Gold6226(), 1), [2][]*isa.Block{benchLoop()})
}

// BenchmarkCoreStepSMT times the cycle stepper on the path Figure 12
// takes: the fingerprinting attacker's 100-nop loop (too large for the
// LSD, resident in the DSB) on thread 0, and a victim loop whose
// footprint overflows the partitioned DSB on thread 1, so both threads
// share delivery slots and the victim keeps MITE busy.
func BenchmarkCoreStepSMT(b *testing.B) {
	attacker := []*isa.Block{isa.NopBlockLen(0x0070_0000, 100, 2)}
	isa.ChainLoop(attacker)
	w := victim.CNNs()[0]
	benchSteps(b, NewCore(Gold6226(), 1), [2][]*isa.Block{attacker, w.PhaseBlocks(0)})
}

// BenchmarkCoreRunUntilIdle times a lone thread running benchLoop for
// 20,000 iterations to completion per op, the shape of a power bit or
// an SGX sender: one thread loops, the other is idle, so the run loop
// fast-forwards all but the first and last few iterations.
func BenchmarkCoreRunUntilIdle(b *testing.B) {
	c := NewCore(Gold6226(), 1)
	blocks := benchLoop()
	b.ReportAllocs()
	b.ResetTimer()
	start := c.Cycle()
	for i := 0; i < b.N; i++ {
		c.Enqueue(0, isa.NewLoopStream(blocks, 20_000), nil)
		c.RunUntilIdle(100_000_000)
	}
	cycles := float64(c.Cycle() - start)
	b.ReportMetric(cycles/float64(b.N), "sim-cycles/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cycles, "ns/sim-cycle")
}

// BenchmarkCoreRunTimed times one full timed attack step (protocol
// overhead, stream execution, noisy measurement) at the non-MT channel's
// default p=10 scale.
func BenchmarkCoreRunTimed(b *testing.B) {
	c := NewCore(Gold6226(), 1)
	blocks := benchLoop()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += c.RunTimed(0, isa.NewLoopStream(blocks, 10))
	}
	if sink < 0 {
		b.Fatal("negative measurement sum")
	}
}
