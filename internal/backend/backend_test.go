package backend

import (
	"testing"

	"repro/internal/isa"
)

// queues builds the two threads' empty IDQs at the frontend's default
// capacity.
func queues() *[2]IDQ {
	return &[2]IDQ{NewIDQ(64), NewIDQ(64)}
}

// fill pushes n one-µop instructions of kind k.
func fill(q *IDQ, k isa.Kind, n int) {
	for i := 0; i < n; i++ {
		q.Push(isa.Inst{Kind: k, UOps: 1, Len: 1})
	}
}

func TestRetireWidth(t *testing.T) {
	b := New(DefaultParams())
	q := queues()
	fill(&q[0], isa.Nop, 20)
	got := b.Cycle(q, nil)
	if got != 4 {
		t.Errorf("retired %d, want 4 (retire width)", got)
	}
	if q[0].Len() != 16 {
		t.Errorf("IDQ holds %d after one cycle, want 16", q[0].Len())
	}
}

func TestBothThreadsRetire(t *testing.T) {
	b := New(DefaultParams())
	q := queues()
	fill(&q[0], isa.Nop, 10)
	fill(&q[1], isa.Nop, 10)
	got := b.Cycle(q, nil)
	if got != 8 {
		t.Errorf("retired %d, want 8 (4 per thread, nops use no ports)", got)
	}
}

func TestMixBlockAvoidsPortConflicts(t *testing.T) {
	// Section IV-D: 4 mov + 1 jmp must not contend. Over a full cycle, 4
	// movs fit ports {0,1,5,6}.
	b := New(DefaultParams())
	q := queues()
	fill(&q[0], isa.Mov, 4)
	b.Cycle(q, nil)
	if b.PortConflicts != 0 {
		t.Errorf("mix block movs caused %d port conflicts", b.PortConflicts)
	}
}

func TestStoreContention(t *testing.T) {
	// Two stores in one cycle contend for the single store port: the
	// backend must record a conflict — the behaviour the paper's mix
	// blocks are designed to avoid.
	b := New(DefaultParams())
	q := queues()
	fill(&q[0], isa.Store, 4)
	b.Cycle(q, nil)
	if b.PortConflicts == 0 {
		t.Error("back-to-back stores should conflict on port 4")
	}
}

func TestCrossThreadPortSharing(t *testing.T) {
	// Stores from both threads share the one store port.
	b := New(DefaultParams())
	q := queues()
	fill(&q[0], isa.Store, 1)
	fill(&q[1], isa.Store, 1)
	b.Cycle(q, nil)
	if b.PortConflicts == 0 {
		t.Error("cross-thread store pressure should conflict")
	}
}

func TestMemHook(t *testing.T) {
	b := New(DefaultParams())
	q := queues()
	q[0].Push(isa.Inst{Kind: isa.Load, UOps: 1, MemAddr: 0x1234})
	var seen []uint64
	b.Cycle(q, func(t int, in isa.Inst) { seen = append(seen, in.MemAddr) })
	if len(seen) != 1 || seen[0] != 0x1234 {
		t.Errorf("mem hook saw %v", seen)
	}
}

func TestPriorityAlternates(t *testing.T) {
	b := New(DefaultParams())
	q := queues()
	// One store each; only the first-considered thread wins the port.
	fill(&q[0], isa.Store, 8)
	fill(&q[1], isa.Store, 8)
	b.Cycle(q, nil)
	r0, r1 := b.Retired[0], b.Retired[1]
	b.Cycle(q, nil)
	// After two cycles priority alternated, so retirement evens out.
	d0, d1 := b.Retired[0]-r0, b.Retired[1]-r1
	if d0 == 0 || d1 == 0 {
		t.Errorf("alternating priority expected progress on both threads, got %d/%d", d0, d1)
	}
}

func TestRetireCountsPerThread(t *testing.T) {
	b := New(DefaultParams())
	q := queues()
	fill(&q[0], isa.Mov, 2)
	b.Cycle(q, nil)
	if b.Retired[0] != 2 || b.Retired[1] != 0 {
		t.Errorf("retired = %v", b.Retired)
	}
}
