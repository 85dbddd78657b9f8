package main

import (
	"sync"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/runctx"
)

// timedChannel wraps a simulator channel so that, on a traced round,
// every SendBit and CloneChannel call gets a span: attack.sendbit and
// cpu.clone. Name, Cycles and FreqGHz pass straight through, so a
// transmission over the wrapper is the same transmission.
type timedChannel struct {
	channel.Cloneable
	t      *tracer
	parent *span
	sink   string // sample key suffix for SendBit: "timing" or "power"
	// lastClone is the most recent CloneChannel result, which lets the
	// benchmark reach the calibration snapshot channel.NewCalibrationCtx
	// takes of it.
	lastClone *timedChannel
}

func (c *timedChannel) SendBit(m byte) float64 {
	sp := c.t.start(c.parent, "attack.sendbit")
	v := c.Cloneable.SendBit(m)
	sp.endSample("attack.sendbit_" + c.sink)
	return v
}

// BindCtx forwards the run context so cancellation reaches the inner
// channel exactly as it would unwrapped.
func (c *timedChannel) BindCtx(rc runctx.Ctx) {
	if ca, ok := c.Cloneable.(channel.CtxAware); ok {
		ca.BindCtx(rc)
	}
}

func (c *timedChannel) CloneChannel() channel.BitChannel {
	c.lastClone = c.cloneUnder(c.parent)
	return c.lastClone
}

// cloneUnder clones the channel with the cpu.clone span under parent;
// the clone's own spans go under parent too. It leaves c unchanged, so
// workers may clone one snapshot concurrently.
func (c *timedChannel) cloneUnder(parent *span) *timedChannel {
	sp := c.t.start(parent, "cpu.clone")
	in := c.Cloneable.CloneChannel().(channel.Cloneable)
	sp.endSample("cpu.clone")
	return &timedChannel{Cloneable: in, t: c.t, parent: parent, sink: c.sink}
}

// counts are exact simulator counts read from the cores the benchmark
// builds.
type counts struct {
	cycles    uint64
	retired   uint64
	uopsDSB   uint64
	uopsLSD   uint64
	uopsMITE  uint64
	switches  uint64
	raplReads uint64
}

func (a counts) add(b counts) counts {
	return counts{
		cycles:    a.cycles + b.cycles,
		retired:   a.retired + b.retired,
		uopsDSB:   a.uopsDSB + b.uopsDSB,
		uopsLSD:   a.uopsLSD + b.uopsLSD,
		uopsMITE:  a.uopsMITE + b.uopsMITE,
		switches:  a.switches + b.switches,
		raplReads: a.raplReads + b.raplReads,
	}
}

func (a counts) sub(b counts) counts {
	return counts{
		cycles:    a.cycles - b.cycles,
		retired:   a.retired - b.retired,
		uopsDSB:   a.uopsDSB - b.uopsDSB,
		uopsLSD:   a.uopsLSD - b.uopsLSD,
		uopsMITE:  a.uopsMITE - b.uopsMITE,
		switches:  a.switches - b.switches,
		raplReads: a.raplReads - b.raplReads,
	}
}

// put writes the counts as per-layer metrics.
func (a counts) put(m map[string]float64) {
	m["cpu.sim_cycles"] = float64(a.cycles)
	m["cpu.retired_uops"] = float64(a.retired)
	m["frontend.uops_dsb"] = float64(a.uopsDSB)
	m["frontend.uops_lsd"] = float64(a.uopsLSD)
	m["frontend.uops_mite"] = float64(a.uopsMITE)
	m["frontend.switches"] = float64(a.switches)
	m["power.rapl_reads"] = float64(a.raplReads)
}

// coreOwner is implemented by the channels that expose their simulated
// core (the non-SGX attack channels other than slow-switch).
type coreOwner interface{ Core() *cpu.Core }

// snapshot reads ch's cumulative counts: cycles from the channel, and
// the frontend, retirement and RAPL counters of both hardware threads
// when the channel exposes its core.
func snapshot(ch channel.BitChannel) counts {
	if tc, ok := ch.(*timedChannel); ok {
		ch = tc.Cloneable
	}
	c := counts{cycles: ch.Cycles()}
	co, ok := ch.(coreOwner)
	if !ok {
		return c
	}
	core := co.Core()
	for t := 0; t < 2; t++ {
		fc := core.Counters(t)
		c.retired += core.Retired(t)
		c.uopsDSB += fc.UOpsDSB
		c.uopsLSD += fc.UOpsLSD
		c.uopsMITE += fc.UOpsMITE
		c.switches += fc.SwitchCount
	}
	c.raplReads = core.PM.RAPLReads()
	return c
}

// countSink accumulates counts from concurrent workers.
type countSink struct {
	mu sync.Mutex
	c  counts
}

func (s *countSink) add(c counts) {
	s.mu.Lock()
	s.c = s.c.add(c)
	s.mu.Unlock()
}

func (s *countSink) get() counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}
