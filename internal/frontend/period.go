package frontend

import (
	"slices"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/period"
)

// This file supports the core's exact fast-forward (package period):
// copying the frontend into a reusable snapshot, checking that one
// period later every field repeats, and extrapolating further periods.

// CopyTo copies f's state into dst, reusing dst's storage; dst may be a
// zero Frontend. The L1I, which the core owns, and the per-thread probe
// closures are not copied: a snapshot is compared against, never run.
func (f *Frontend) CopyTo(dst *Frontend) {
	if dst.DSB == nil {
		dst.DSB, dst.align, dst.sw = &DSB{}, &AlignTracker{}, &switchBuffer{}
		for t := 0; t < 2; t++ {
			dst.BPU[t], dst.lsd[t] = &branch.Predictor{}, &LSD{}
		}
	}
	dst.P = f.P
	f.DSB.copyTo(dst.DSB)
	*dst.align = *f.align
	f.sw.copyTo(dst.sw)
	for t := 0; t < 2; t++ {
		*dst.BPU[t] = *f.BPU[t]
		f.lsd[t].copyTo(dst.lsd[t])
		loop := dst.thr[t].loop
		dst.thr[t] = f.thr[t]
		if f.thr[t].loop != nil {
			if loop == nil {
				loop = new(isa.LoopStream)
			}
			*loop = *f.thr[t].loop
			dst.thr[t].loop = loop
		}
		f.IDQ[t].CopyTo(&dst.IDQ[t])
	}
	dst.Ctr = f.Ctr
}

// Repeats reports whether f is prev — a CopyTo snapshot — advanced by
// one period of repeating execution, and whether m further periods
// extrapolate exactly. Every field must be equal except counters, LRU
// stamps that shifted with their structure's tick, loop-stream
// iteration counts and the IDQ ring position. Streams other than loop
// streams are never repeating.
func (f *Frontend) Repeats(prev *Frontend, m uint64) bool {
	if f.P != prev.P || *f.align != *prev.align || !f.DSB.repeats(prev.DSB) || !f.sw.repeats(prev.sw) {
		return false
	}
	for t := 0; t < 2; t++ {
		a, b := f.thr[t], prev.thr[t]
		if a.stream != nil || b.stream != nil || (a.loop == nil) != (b.loop == nil) ||
			a.loop != nil && !a.loop.Repeats(b.loop) {
			return false
		}
		a.loop, b.loop = nil, nil
		if a != b || !f.BPU[t].Repeats(prev.BPU[t]) || !f.lsd[t].repeats(prev.lsd[t]) ||
			!f.IDQ[t].Repeats(&prev.IDQ[t]) || !f.floatCountersExact(&f.Ctr[t], &prev.Ctr[t], m) {
			return false
		}
	}
	return true
}

// floatCountersExact reports whether the float counters extrapolate
// exactly over m more periods: each one either did not move, or every
// increment the frontend can add to it, its value and its extrapolated
// value are all period.Dyadic.
func (f *Frontend) floatCountersExact(c, prev *ThreadCounters, m uint64) bool {
	exact := func(cur, old float64, incs ...float64) bool {
		if cur == old {
			return true
		}
		for _, x := range incs {
			if !period.Dyadic(x) {
				return false
			}
		}
		return period.Dyadic(old) && period.Dyadic(cur) && period.Dyadic(cur+float64(m)*(cur-old))
	}
	return exact(c.LCPStallCycles, prev.LCPStallCycles, f.P.LCPStallIsolated, f.P.LCPStallChained) &&
		exact(c.SwitchCycles, prev.SwitchCycles, f.P.SwitchPenalty, f.P.SwitchResidual)
}

// Extrapolate advances f by m more periods of the change from prev, for
// an f that Repeats prev with m.
func (f *Frontend) Extrapolate(prev *Frontend, m uint64) {
	f.DSB.extrapolate(prev.DSB, m)
	period.Counters(&f.sw.stats, &prev.sw.stats, m)
	for t := 0; t < 2; t++ {
		f.BPU[t].Extrapolate(prev.BPU[t], m)
		f.lsd[t].extrapolate(prev.lsd[t], m)
		f.IDQ[t].Extrapolate(&prev.IDQ[t], m)
		if f.thr[t].loop != nil {
			f.thr[t].loop.Extrapolate(prev.thr[t].loop, m)
		}
		period.Counters(&f.Ctr[t], &prev.Ctr[t], m)
	}
}

// StallDebt returns thread t's outstanding stall debt in cycles.
func (f *Frontend) StallDebt(t int) float64 { return f.thr[t].stall }

func (d *DSB) copyTo(dst *DSB) {
	sets, evict, surv := dst.sets, dst.evictScratch, dst.survScratch
	*dst = *d
	if len(sets) != len(d.sets) {
		sets = make([][]dsbEntry, len(d.sets))
	}
	for i, set := range d.sets {
		sets[i] = append(sets[i][:0], set...)
	}
	dst.sets, dst.evictScratch, dst.survScratch = sets, evict, surv
}

// repeats compares the DSB with a snapshot one period earlier. The
// eviction scratch buffers are not state: each use starts them empty.
func (d *DSB) repeats(prev *DSB) bool {
	if d.p != prev.p || d.partitioned != prev.partitioned || len(d.sets) != len(prev.sets) {
		return false
	}
	dt := d.tick - prev.tick
	for i, set := range d.sets {
		old := prev.sets[i]
		if len(set) != len(old) {
			return false
		}
		for j := range set {
			e := set[j]
			e.lru = old[j].lru
			if e != old[j] {
				return false
			}
		}
		if !period.Stamps(len(set), dt, func(j int) (uint64, uint64, bool) {
			return set[j].lru, old[j].lru, set[j].valid
		}) {
			return false
		}
	}
	return true
}

func (d *DSB) extrapolate(prev *DSB, m uint64) {
	dt := d.tick - prev.tick
	for i, set := range d.sets {
		for j := range set {
			if set[j].lru != prev.sets[i][j].lru {
				set[j].lru += m * dt
			}
		}
	}
	d.tick += m * dt
	period.Counters(&d.stats, &prev.stats, m)
}

// copyTo copies the detector into dst, keeping dst's tracker pointer.
func (l *LSD) copyTo(dst *LSD) {
	align, w, lw := dst.align, dst.windows, dst.lockedWindows
	*dst = *l
	dst.align = align
	dst.windows = append(w[:0], l.windows...)
	dst.lockedWindows = append(lw[:0], l.lockedWindows...)
}

// repeats compares the detector with a snapshot one period earlier;
// only the lock and flush counts may differ.
func (l *LSD) repeats(prev *LSD) bool {
	return l.p == prev.p && l.enabled == prev.enabled && l.head == prev.head &&
		l.tracking == prev.tracking && l.uops == prev.uops && l.crossings == prev.crossings &&
		l.lastSig == prev.lastSig && l.stable == prev.stable && l.locked == prev.locked &&
		l.lockedSig == prev.lockedSig && slices.Equal(l.windows, prev.windows) &&
		slices.Equal(l.lockedWindows, prev.lockedWindows)
}

func (l *LSD) extrapolate(prev *LSD, m uint64) {
	l.locks += m * (l.locks - prev.locks)
	l.flushes += m * (l.flushes - prev.flushes)
}

func (b *switchBuffer) copyTo(dst *switchBuffer) {
	addrs, counts := dst.addrs, dst.counts
	*dst = *b
	dst.addrs = append(addrs[:0], b.addrs...)
	dst.counts = append(counts[:0], b.counts...)
}

func (b *switchBuffer) repeats(prev *switchBuffer) bool {
	return b.learned == prev.learned && slices.Equal(b.addrs, prev.addrs) && slices.Equal(b.counts, prev.counts)
}
