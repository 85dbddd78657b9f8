package backend

// Clone returns a deep copy of the execution engine's retirement state.
func (b *Backend) Clone() *Backend {
	c := *b
	return &c
}

// Repeats reports whether b is prev advanced by one period of repeating
// retirement: the configuration is unchanged and the counters may
// differ. The thread priority may differ too: it only orders the two
// threads' retirement, and the core extrapolates only periods in which
// one thread's queue stays empty.
func (b *Backend) Repeats(prev *Backend) bool {
	a := *b
	a.Retired, a.PortConflicts, a.prio = prev.Retired, prev.PortConflicts, prev.prio
	return a == *prev
}

// Extrapolate advances b by m more periods of the change from prev: the
// counters grow linearly, and the priority, which alternates every
// cycle, flips m more times if it flipped over the period.
func (b *Backend) Extrapolate(prev *Backend, m uint64) {
	b.Retired[0] += m * (b.Retired[0] - prev.Retired[0])
	b.Retired[1] += m * (b.Retired[1] - prev.Retired[1])
	b.PortConflicts += m * (b.PortConflicts - prev.PortConflicts)
	if b.prio != prev.prio {
		b.prio ^= int(m & 1)
	}
}

// Idle advances b over n cycles with both queues empty: nothing retires,
// and the priority alternates once per cycle.
func (b *Backend) Idle(n uint64) { b.prio ^= int(n & 1) }

// CopyTo makes dst a copy of q, reusing dst's buffer.
func (q *IDQ) CopyTo(dst *IDQ) {
	buf := dst.buf
	*dst = *q
	dst.buf = append(buf[:0], q.buf...)
}

// Repeats reports whether q holds the same micro-ops as prev, each a
// single micro-op, possibly at a rotated ring position. With single
// micro-ops the ring's behaviour depends only on its contents relative
// to the head, so the rotation is invisible.
func (q *IDQ) Repeats(prev *IDQ) bool {
	if q.size != prev.size || len(q.buf) != len(prev.buf) {
		return false
	}
	for j := 0; j < q.size; j++ {
		a, b := q.buf[(q.head+j)&q.mask], prev.buf[(prev.head+j)&prev.mask]
		if a != b || a.UOps != 1 {
			return false
		}
	}
	return true
}

// Extrapolate advances q by m more periods of the change from prev, for
// a q that Repeats prev: the head moves m more times as far as it moved
// over the period, and the contents move with it.
func (q *IDQ) Extrapolate(prev *IDQ, m uint64) {
	dh := uint64(q.head-prev.head) & uint64(q.mask)
	q.head = int((uint64(q.head) + m*dh) & uint64(q.mask))
	for j := 0; j < q.size; j++ {
		q.buf[(q.head+j)&q.mask] = prev.buf[(prev.head+j)&prev.mask]
	}
}
