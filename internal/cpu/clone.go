package cpu

import "repro/internal/isa"

// Clone returns a deep copy of the core: stepping the clone produces
// exactly the cycle counts, counter values, and RNG draws the original
// would have produced from this point. In-flight and queued tasks are
// snapshotted too, as long as they carry no callbacks — a closure cannot
// be deep-copied, so Clone panics on a task with OnStart/OnDone or a
// measurement callback still pending. The sweep engine clones cores at
// the quiescent point after a calibration preamble (always callback-free);
// the leakage-contract executor clones mid-stream.
func (c *Core) Clone() *Core {
	d := &Core{
		Model:     c.Model,
		BE:        c.BE.Clone(),
		L1I:       c.L1I.Clone(),
		L1D:       c.L1D.Clone(),
		PM:        c.PM.Clone(),
		TSC:       c.TSC.Clone(),
		R:         c.R.Clone(),
		cycle:     c.cycle,
		lastBoth:  c.lastBoth,
		miteHold:  c.miteHold,
		prevLSD:   c.prevLSD,
		prevDSB:   c.prevDSB,
		prevMITE:  c.prevMITE,
		prevStall: c.prevStall,
	}
	d.FE = c.FE.CloneWith(d.L1I)
	for t := 0; t < 2; t++ {
		// The dispatched task's stream was installed in the frontend; the
		// frontend clone already snapshotted it, so point the cloned task
		// at that same snapshot rather than cloning the stream twice.
		if c.cur[t] != nil {
			d.cur[t] = cloneTask(c.cur[t])
			d.cur[t].Stream = d.FE.Stream(t)
		}
		for _, task := range c.queue[t][c.qhead[t]:] {
			q := cloneTask(task)
			q.Stream = cloneTaskStream(task.Stream)
			d.queue[t] = append(d.queue[t], q)
		}
	}
	d.memHook = func(t int, in isa.Inst) { d.L1D.Access(in.MemAddr) }
	return d
}

// cloneTask copies a task's scalar state and rejects tasks whose
// callbacks would dangle into the original core's world.
func cloneTask(t *Task) *Task {
	if t.OnStart != nil || t.OnDone != nil || t.measCb != nil {
		panic("cpu: Clone with an in-flight callback-bearing task")
	}
	c := *t
	return &c
}

// cloneTaskStream snapshots a queued (not yet dispatched) task's stream.
func cloneTaskStream(s isa.Stream) isa.Stream {
	if s == nil {
		return nil
	}
	cs, ok := s.(isa.CloneableStream)
	if !ok {
		panic("cpu: Clone with a non-cloneable queued stream")
	}
	return cs.CloneStream()
}
