package cpu_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cpu/cputest"
	"repro/internal/isa"
)

// loop chains blocks into a loop stream of iters iterations.
func loop(iters int, blocks ...*isa.Block) isa.Stream {
	isa.ChainLoop(blocks)
	return isa.NewLoopStream(blocks, iters)
}

// loadAddrs returns n data addresses, stride bytes apart.
func loadAddrs(n int, stride uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = 0x9000_0000 + uint64(i)*stride
	}
	return a
}

// ffScenarios drive a core through the stretches the fast-forward
// handles — lone loops on every delivery path, idle spans, a partition
// that reverts mid-loop — and through ones it must refuse. skips says
// whether the fast-forward is expected to engage.
var ffScenarios = []struct {
	name  string
	model func() cpu.Model
	skips bool
	run   func(c *cpu.Core)
}{
	{"lsd", cpu.Gold6226, true, func(c *cpu.Core) {
		c.Enqueue(0, loop(20_000, isa.MixChain(20, 6, true)...), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"dsb", cpu.Gold6226, true, func(c *cpu.Core) {
		c.Enqueue(0, loop(3_000, isa.NopBlockLen(0x0070_0000, 100, 2)), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"misaligned", cpu.Gold6226, true, func(c *cpu.Core) {
		c.Enqueue(0, loop(5_000, isa.MixChain(5, 4, false)...), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"dsb-thrash", cpu.Gold6226, true, func(c *cpu.Core) {
		c.Enqueue(0, loop(3_000, isa.MixChain(9, 10, true)...), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"lcp-lsd", cpu.Gold6226, true, func(c *cpu.Core) {
		c.Enqueue(0, loop(3_000, isa.LCPBlock(isa.AddrForSet(4, 0), 4, true)), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"lcp-mite", func() cpu.Model { return cpu.Gold6226().WithLSD(false) }, false, func(c *cpu.Core) {
		// Without the LSD every LCP decodes through MITE, and each
		// isolated LCP stall adds 2.56 cycles to a float counter whose
		// repeated sum cannot be extrapolated exactly.
		c.Enqueue(0, loop(3_000, isa.LCPBlock(isa.AddrForSet(4, 0), 4, true)), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"loads", cpu.Gold6226, true, func(c *cpu.Core) {
		c.Enqueue(0, loop(4_000, isa.LoadBlock(isa.AddrForSet(6, 0), loadAddrs(12, 4096))), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"loads-cut", cpu.Gold6226, true, func(c *cpu.Core) {
		// RunCycles ends mid-loop, right after a skip, before later
		// iterations rewrite the recency stamps the skip shifted.
		c.Enqueue(0, loop(4_000, isa.LoadBlock(isa.AddrForSet(6, 0), loadAddrs(12, 64))), nil)
		c.RunCycles(10_007)
	}},
	{"pause", cpu.Gold6226, true, func(c *cpu.Core) {
		c.Enqueue(1, loop(500, isa.PauseBlock(isa.AddrForSet(30, 20), 3), isa.MixBlock(isa.AddrForSet(31, 0))), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"no-lsd", func() cpu.Model { return cpu.Gold6226().WithLSD(false) }, true, func(c *cpu.Core) {
		c.Enqueue(0, loop(20_000, isa.MixChain(20, 6, true)...), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"smt-tail", cpu.Gold6226, true, func(c *cpu.Core) {
		// Both threads partition the DSB; the sibling finishes early and
		// the partition reverts while thread 1's loop runs alone.
		c.Enqueue(1, loop(10_000, isa.MixChain(12, 9, true)...), nil)
		c.Enqueue(0, loop(20, isa.MixChain(12, 3, true)...), nil)
		c.RunUntilIdle(10_000_000)
	}},
	{"idle", cpu.Gold6226, true, func(c *cpu.Core) {
		c.Enqueue(1, loop(40, isa.MixChain(12, 9, true)...), nil)
		c.Enqueue(0, loop(40, isa.MixChain(13, 3, true)...), nil)
		c.RunCycles(300_000)
	}},
	{"timed", cpu.Gold6226, true, func(c *cpu.Core) {
		for i := 0; i < 4; i++ {
			c.RunTimed(0, loop(2_000+i, isa.MixChain(3, 4+i, i%2 == 0)...))
			c.RunTimedTight(0, loop(5, isa.MixChain(3, 4, true)...))
		}
	}},
	{"measure-queued", cpu.Gold6226, true, func(c *cpu.Core) {
		var got []float64
		c.Enqueue(1, loop(10_000, isa.MixChain(8, 9, true)...), nil)
		for i := 0; i < 10; i++ {
			c.MeasureEnqueue(0, loop(10, isa.MixChain(8, 3, true)...), func(v float64) { got = append(got, v) })
		}
		c.RunUntilIdle(100_000_000)
		c.RunCycles(7_000)
		if len(got) != 10 {
			panic(fmt.Sprintf("%d measurements", len(got)))
		}
	}},
}

// TestFastForwardMatchesPlainStepping runs every scenario fast-forwarded
// and plain-stepped and requires the two cores to end in identical
// state, field by field.
func TestFastForwardMatchesPlainStepping(t *testing.T) {
	for _, sc := range ffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			before := cpu.SkippedCycles()
			fast := cpu.NewCore(sc.model(), 7)
			sc.run(fast)
			skipped := cpu.SkippedCycles() - before

			was := cpu.SetPlainStepping(true)
			plain := cpu.NewCore(sc.model(), 7)
			sc.run(plain)
			cpu.SetPlainStepping(was)

			if d := cputest.Diff(fast, plain); len(d) != 0 {
				t.Fatalf("fast-forwarded core differs from plain stepping after %d cycles (%d skipped):\n%s",
					plain.Cycle(), skipped, strings.Join(d[:min(len(d), 20)], "\n"))
			}
			if sc.skips != (skipped > 0) {
				t.Errorf("skipped %d of %d cycles; want skipping=%v", skipped, plain.Cycle(), sc.skips)
			}
		})
	}
}

// TestRunUntilIdleGuardSameCycle pins that the runaway guard fires at
// the same cycle, in the same state, with and without the fast-forward:
// a skip never carries the core past the guard.
func TestRunUntilIdleGuardSameCycle(t *testing.T) {
	run := func() (c *cpu.Core, msg string) {
		c = cpu.NewCore(cpu.Gold6226(), 3)
		c.Enqueue(0, loop(100_000, isa.MixChain(20, 6, true)...), nil)
		defer func() { msg = fmt.Sprint(recover()) }()
		c.RunUntilIdle(123_457)
		return c, ""
	}
	before := cpu.SkippedCycles()
	fast, fastMsg := run()
	if cpu.SkippedCycles() == before {
		t.Fatal("the fast-forward never engaged")
	}
	was := cpu.SetPlainStepping(true)
	plain, plainMsg := run()
	cpu.SetPlainStepping(was)

	if !strings.Contains(plainMsg, "exceeded 123457 cycles") || fastMsg != plainMsg {
		t.Fatalf("guard panics differ: fast %q, plain %q", fastMsg, plainMsg)
	}
	if fast.Cycle() != plain.Cycle() || plain.Cycle() != 123_458 {
		t.Fatalf("guard fired at cycle %d fast-forwarded, %d plain; want 123458", fast.Cycle(), plain.Cycle())
	}
	if d := cputest.Diff(fast, plain); len(d) != 0 {
		t.Fatalf("state at the guard differs:\n%s", strings.Join(d[:min(len(d), 20)], "\n"))
	}
}

// TestRepeatsKnowsEveryCoreField pins Core's field list. A new field
// must be classified in the core's period check (repeats, extrapolate,
// save) — compared, extrapolated, or shown never to change while a loop
// runs alone — before it is added here.
func TestRepeatsKnowsEveryCoreField(t *testing.T) {
	want := []string{"Model", "FE", "BE", "L1I", "L1D", "PM", "TSC", "R", "cycle", "queue", "qhead", "cur",
		"lastBoth", "miteHold", "memHook", "prevLSD", "prevDSB", "prevMITE", "prevStall"}
	typ := reflect.TypeOf(cpu.Core{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Core fields = %v, the period check knows %v", got, want)
	}
}
