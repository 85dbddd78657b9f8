package cpu

import (
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/timer"
)

// The run loops fast-forward two kinds of stretch, both exactly: the
// result is the state Step would reach cycle by cycle, byte for byte.
// Between measurements the core is deterministic — the RNG is drawn only
// when a timed task completes — so a stretch that provably repeats can
// be extrapolated instead of stepped.
//
//   - Idle: no task on either thread and both IDQs empty. Each cycle only
//     advances the clock, flips the backend's thread priority and
//     accrues static power.
//   - Lone loop: one thread runs an isa.LoopStream and the other is idle.
//     At each loop-iteration boundary a cheap signature is recorded; when
//     it repeats with a period of at most maxPeriod iterations, the core
//     is snapshotted, stepped one period, and compared field by field
//     with the snapshot (see package period). If every field repeats,
//     further periods are extrapolated: counters grow linearly, LRU
//     stamps shift with their structure's tick, the loop's iteration
//     count advances.
//
// The power meter is never extrapolated: its float energy sum depends on
// the order of additions. The check records each cycle's energy, and
// every skipped period replays those energies into the meter in order.

// maxPeriod is the longest repeat, in loop-iteration boundaries, the
// signature search looks for.
const maxPeriod = 8

// minSkipCycles is the fewest cycles an attempt must expect to skip:
// copying and comparing the core costs about as much as stepping a few
// hundred cycles.
const minSkipCycles = 2048

// plainStepping turns the fast-forward off; see SetPlainStepping.
var plainStepping atomic.Bool

// skippedCycles counts the cycles every core has fast-forwarded.
var skippedCycles atomic.Uint64

// SkippedCycles returns how many simulated cycles the run loops of all
// cores have fast-forwarded instead of stepping since the process
// started.
func SkippedCycles() uint64 { return skippedCycles.Load() }

// SetPlainStepping makes RunCycles and RunUntilIdle step every cycle
// (on) or fast-forward repeating stretches (off, the default), and
// returns the previous setting. Both give identical results; the switch
// exists so tests can check the fast-forward against plain stepping, its
// reference.
func SetPlainStepping(on bool) (was bool) { return plainStepping.Swap(on) }

// boundary is the signature of one loop-iteration boundary: the step at
// which the loop stream's iteration count changed.
type boundary struct {
	cycle, lsd, dsb, mite uint64
	iter, pos             int
	stall                 float64
}

// snapshot holds the state a period check compares against, and the
// per-cycle energies of the period being checked. Snapshots are
// pooled, so attempts reuse their storage.
type snapshot struct {
	fe       frontend.Frontend
	be       backend.Backend
	l1i, l1d cache.Cache
	tsc      timer.TSC
	r        rng.RNG

	cycle, lastBoth uint64
	miteHold        int
	cur             [2]*Task
	queue, qhead    [2]int
	prev            [4]uint64 // prevLSD, prevDSB, prevMITE, prevStall

	energy []float64
}

var snapshots = sync.Pool{New: func() any { return new(snapshot) }}

// fastForward is one run-loop call's fast-forward state.
type fastForward struct {
	off bool

	task   *Task // the lone loop's task the signatures belong to
	loop   *isa.LoopStream
	iter   int // the loop's iteration count after the last step
	sigs   [2*maxPeriod + 1]boundary
	nsig   int // signatures recorded, the newest at sigs[(nsig-1)%len]
	wait   int // boundaries to let pass before the next attempt
	missed int // failed attempts on this task, for the back-off

	snap *snapshot
}

func newFastForward() fastForward { return fastForward{off: plainStepping.Load()} }

// mayApply is the run loops' per-cycle test: with both threads busy
// neither regime applies, and the cycle costs no further checks.
func (ff *fastForward) mayApply(c *Core) bool {
	return !ff.off && (c.cur[0] == nil || c.cur[1] == nil)
}

// release returns the snapshot storage to the pool.
func (ff *fastForward) release() {
	if ff.snap != nil {
		snapshots.Put(ff.snap)
		ff.snap = nil
	}
}

// skipIdle fast-forwards an idle core towards cycle limit, stopping
// short of a pending DSB partition change. It reports whether the core
// was idle.
func (c *Core) skipIdle(limit uint64) bool {
	if !c.Idle() || c.FE.IDQ[0].Len() != 0 || c.FE.IDQ[1].Len() != 0 {
		return false
	}
	if flip, ok := c.partitionFlip(); ok && flip-1 < limit {
		limit = flip - 1
	}
	if limit <= c.cycle {
		return true
	}
	n := limit - c.cycle
	skippedCycles.Add(n)
	c.cycle = limit
	c.BE.Idle(n)
	c.PM.Replay([]float64{c.PM.CycleEnergy(0, 0, 0, 0, 0)}, n)
	return true
}

// partitionFlip returns the cycle at which Step will revert a DSB
// partition that no longer has two active threads behind it.
func (c *Core) partitionFlip() (uint64, bool) {
	if !c.Model.HyperThreading || c.Model.StaticDSBPartition || !c.FE.DSB.Partitioned() ||
		c.cur[0] != nil && c.cur[1] != nil {
		return 0, false
	}
	return c.lastBoth + c.Model.PartitionHysteresis + 1, true
}

// skipLoop records loop-iteration signatures while exactly one thread
// runs a loop stream, and fast-forwards the loop when they repeat. It
// never moves the core past cycle limit.
func (ff *fastForward) skipLoop(c *Core, limit uint64) {
	if c.cur[0] == nil && c.cur[1] == nil {
		return
	}
	t := 0
	if c.cur[0] == nil {
		t = 1
	}
	if c.Busy(1-t) || c.FE.IDQ[1-t].Len() != 0 {
		return
	}
	if task := c.cur[t]; task != ff.task {
		ls, _ := task.Stream.(*isa.LoopStream)
		*ff = fastForward{task: task, loop: ls, iter: -1, snap: ff.snap}
	}
	if ff.loop == nil {
		return
	}
	iter, iters, pos := ff.loop.Progress()
	if iter == ff.iter {
		return
	}
	ff.iter = iter
	if ff.nsig > 0 {
		// A loop whose remaining iterations, at the last iteration's
		// pace, are too few to be worth an attempt is not worth
		// recording either.
		last := ff.sig(0)
		if uint64(iters-iter)*(c.cycle-last.cycle) < minSkipCycles*uint64(iter-last.iter) {
			return
		}
	}
	ff.sigs[ff.nsig%len(ff.sigs)] = boundary{
		cycle: c.cycle, lsd: c.FE.Ctr[t].UOpsLSD, dsb: c.FE.Ctr[t].UOpsDSB, mite: c.FE.Ctr[t].UOpsMITE,
		iter: iter, pos: pos, stall: c.FE.StallDebt(t),
	}
	ff.nsig++
	if ff.wait > 0 {
		ff.wait--
		return
	}
	k := ff.period()
	if k == 0 {
		// Searching costs a few dozen comparisons; wait for the record
		// to move on by a longest period first.
		ff.wait = maxPeriod
		return
	}
	// The signature may repeat every k boundaries while the state
	// repeats only every few multiples of k — a set thrashed by more
	// lines than it has ways rotates them through its slots — so each
	// failed check doubles the period tried next.
	for i := 0; i < ff.missed && 2*k <= maxPeriod; i++ {
		k *= 2
	}
	a, b := ff.sig(0), ff.sig(k)
	cycles, iterStep := a.cycle-b.cycle, a.iter-b.iter
	// One period is stepped to check, and at least one more, plus the
	// final iteration, is left to step after the skip.
	periods := (iters - iter - iterStep - 1) / iterStep
	if periods < 2 || uint64(periods-1)*cycles < minSkipCycles || limit-c.cycle < 2*cycles {
		return
	}
	if _, pending := c.partitionFlip(); pending {
		return
	}
	if !ff.attempt(c, t, iter, iterStep, cycles, limit) {
		ff.missed++
		ff.wait = 1 << min(ff.missed, 10)
	}
	ff.nsig = 0
	ff.iter, _, _ = ff.loop.Progress()
}

// sig returns the signature recorded back boundaries before the newest.
func (ff *fastForward) sig(back int) *boundary {
	return &ff.sigs[(ff.nsig-1-back)%len(ff.sigs)]
}

// period returns the smallest k ≤ maxPeriod with which the recorded
// boundaries repeat throughout — the same body position and stall debt
// k boundaries apart, and the same cycle, delivery and iteration
// increments k boundaries apart — or 0. It needs a full record, so that
// a short period cannot match a longer pattern only locally.
func (ff *fastForward) period() int {
	n := len(ff.sigs)
	if ff.nsig < n {
		return 0
	}
	for k := 1; k <= maxPeriod; k++ {
		i := 0
		for ; i+k < n; i++ {
			a, b := ff.sig(i), ff.sig(i+k)
			if a.pos != b.pos || a.stall != b.stall {
				break
			}
			if i+k+1 < n {
				a0, b0 := ff.sig(i+1), ff.sig(i+k+1)
				if a.cycle-a0.cycle != b.cycle-b0.cycle || a.iter-a0.iter != b.iter-b0.iter ||
					a.lsd-a0.lsd != b.lsd-b0.lsd || a.dsb-a0.dsb != b.dsb-b0.dsb || a.mite-a0.mite != b.mite-b0.mite {
					break
				}
			}
		}
		if i+k == n {
			return k
		}
	}
	return 0
}

// attempt snapshots the core, steps it until thread t's loop advances
// from iteration iter by step more, and, if every field then repeats
// the snapshot, extrapolates as many further periods as the loop and
// limit allow. The check period is abandoned if it runs past twice the
// expected cycles, reaches limit, or the lone-loop regime ends. It
// reports whether it skipped.
func (ff *fastForward) attempt(c *Core, t, iter, step int, cycles, limit uint64) bool {
	if ff.snap == nil {
		ff.snap = snapshots.Get().(*snapshot)
	}
	s := ff.snap
	c.save(s)
	task := c.cur[t]
	for {
		lsd, dsb, mite, stall := c.prevLSD, c.prevDSB, c.prevMITE, c.prevStall
		retired := c.BE.Retired[0] + c.BE.Retired[1]
		c.Step()
		s.energy = append(s.energy, c.PM.CycleEnergy(c.prevLSD-lsd, c.prevDSB-dsb, c.prevMITE-mite,
			c.prevStall-stall, int(c.BE.Retired[0]+c.BE.Retired[1]-retired)))
		if c.cur[t] != task || c.Busy(1-t) {
			return false
		}
		now, iters, _ := ff.loop.Progress()
		if now == iter+step {
			m := min(uint64((iters-now-step-1)/step), (limit-c.cycle)/(c.cycle-s.cycle))
			if m == 0 || !c.repeats(s, m) {
				return false
			}
			skippedCycles.Add(m * (c.cycle - s.cycle))
			c.extrapolate(s, m)
			c.PM.Replay(s.energy, m)
			return true
		}
		if now > iter+step || c.cycle >= limit || c.cycle-s.cycle >= 2*cycles {
			return false
		}
	}
}

// save copies the core's state into s and empties its energy record.
func (c *Core) save(s *snapshot) {
	c.FE.CopyTo(&s.fe)
	s.be = *c.BE
	c.L1I.CopyTo(&s.l1i)
	c.L1D.CopyTo(&s.l1d)
	s.tsc, s.r = *c.TSC, *c.R
	s.cycle, s.lastBoth, s.miteHold, s.cur = c.cycle, c.lastBoth, c.miteHold, c.cur
	for t := 0; t < 2; t++ {
		s.queue[t], s.qhead[t] = len(c.queue[t]), c.qhead[t]
	}
	s.prev = [4]uint64{c.prevLSD, c.prevDSB, c.prevMITE, c.prevStall}
	s.energy = s.energy[:0]
}

// repeats reports whether the core is s advanced by one period that m
// further periods extrapolate exactly. The model and the L1D wiring are
// never written after NewCore; the power meter is replayed, not
// compared.
func (c *Core) repeats(s *snapshot, m uint64) bool {
	if c.lastBoth != s.lastBoth || c.miteHold != s.miteHold || c.cur != s.cur ||
		*c.TSC != s.tsc || *c.R != s.r {
		return false
	}
	for t := 0; t < 2; t++ {
		if len(c.queue[t]) != s.queue[t] || c.qhead[t] != s.qhead[t] {
			return false
		}
	}
	return c.BE.Repeats(&s.be) && c.L1I.Repeats(&s.l1i) && c.L1D.Repeats(&s.l1d) && c.FE.Repeats(&s.fe, m)
}

// extrapolate advances the core by m more periods of the change from s,
// except for the power meter, which the caller replays.
func (c *Core) extrapolate(s *snapshot, m uint64) {
	c.cycle += m * (c.cycle - s.cycle)
	c.prevLSD += m * (c.prevLSD - s.prev[0])
	c.prevDSB += m * (c.prevDSB - s.prev[1])
	c.prevMITE += m * (c.prevMITE - s.prev[2])
	c.prevStall += m * (c.prevStall - s.prev[3])
	c.BE.Extrapolate(&s.be, m)
	c.L1I.Extrapolate(&s.l1i, m)
	c.L1D.Extrapolate(&s.l1d, m)
	c.FE.Extrapolate(&s.fe, m)
}
