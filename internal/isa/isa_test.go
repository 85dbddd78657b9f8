package isa

import (
	"testing"
	"testing/quick"
)

func TestMixBlockShape(t *testing.T) {
	b := MixBlock(0x1000)
	if got := b.Bytes(); got != 25 {
		t.Errorf("MixBlock bytes = %d, want 25 (4 mov + 1 jmp per Section IV-D)", got)
	}
	if got := b.UOps(); got != 5 {
		t.Errorf("MixBlock uops = %d, want 5", got)
	}
	if got := len(b.Insts); got != 5 {
		t.Errorf("MixBlock insts = %d, want 5", got)
	}
	last := b.Insts[len(b.Insts)-1]
	if last.Kind != Jmp || !last.Taken {
		t.Errorf("MixBlock must end in a taken jmp, got %v", last.Kind)
	}
	for _, in := range b.Insts[:4] {
		if in.Kind != Mov {
			t.Errorf("expected mov, got %v", in.Kind)
		}
	}
}

func TestMixBlockFitsOneWindow(t *testing.T) {
	// An aligned mix block must not exceed a 32-byte window and must not
	// exceed 6 micro-ops: the two Section IV-D requirements.
	b := MixBlock(AddrForSet(5, 0))
	if b.Bytes() > WindowBytes {
		t.Errorf("block bytes %d exceed window %d", b.Bytes(), WindowBytes)
	}
	if b.UOps() > 6 {
		t.Errorf("block uops %d exceed DSB line capacity 6", b.UOps())
	}
	first := Window(b.Start())
	lastEnd := Window(b.Insts[len(b.Insts)-1].End() - 1)
	if first != lastEnd {
		t.Errorf("aligned block spans windows %d..%d", first, lastEnd)
	}
}

func TestMisalignedBlockSpansTwoWindows(t *testing.T) {
	b := MixBlock(MisalignedAddrForSet(5, 0))
	if !b.Misaligned() {
		t.Fatal("block at +16 offset should report misaligned")
	}
	first := Window(b.Start())
	lastEnd := Window(b.Insts[len(b.Insts)-1].End() - 1)
	if lastEnd != first+1 {
		t.Errorf("misaligned block should span exactly 2 windows, spans %d..%d", first, lastEnd)
	}
}

func TestAlignedBlockNotMisaligned(t *testing.T) {
	if MixBlock(AddrForSet(3, 2)).Misaligned() {
		t.Error("aligned block reports misaligned")
	}
}

func TestAddrForSetMapping(t *testing.T) {
	for set := 0; set < DSBSets; set++ {
		for way := 0; way < DSBWays+2; way++ {
			a := AddrForSet(set, way)
			if got := DSBSet(a); got != set {
				t.Fatalf("AddrForSet(%d,%d) maps to set %d", set, way, got)
			}
			if a%WindowBytes != 0 {
				t.Fatalf("AddrForSet(%d,%d) = %#x not window aligned", set, way, a)
			}
		}
	}
}

func TestAddrForSetDistinctTags(t *testing.T) {
	seen := map[uint64]bool{}
	for way := 0; way < 16; way++ {
		a := AddrForSet(7, way)
		if seen[a] {
			t.Fatalf("duplicate address for way %d", way)
		}
		seen[a] = true
	}
}

func TestAddrForSetProperty(t *testing.T) {
	f := func(set, way uint8) bool {
		s := int(set) % DSBSets
		w := int(way) % 64
		return DSBSet(AddrForSet(s, w)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrForSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range set")
		}
	}()
	AddrForSet(DSBSets, 0)
}

func TestChainLoopTargets(t *testing.T) {
	blocks := MixChain(4, 3, true)
	for i, b := range blocks {
		want := blocks[(i+1)%3].Start()
		got := b.Insts[len(b.Insts)-1].Target
		if got != want {
			t.Errorf("block %d jmp target = %#x, want %#x", i, got, want)
		}
	}
}

func TestMixChainSetCollision(t *testing.T) {
	blocks := MixChain(9, 8, true)
	for i, b := range blocks {
		if got := DSBSet(b.Start()); got != 9 {
			t.Errorf("block %d maps to set %d, want 9", i, got)
		}
	}
}

func TestMixChainMixed(t *testing.T) {
	blocks := MixChainMixed(2, 5, 3)
	if len(blocks) != 8 {
		t.Fatalf("got %d blocks, want 8", len(blocks))
	}
	for i := 0; i < 5; i++ {
		if blocks[i].Misaligned() {
			t.Errorf("block %d should be aligned", i)
		}
	}
	for i := 5; i < 8; i++ {
		if !blocks[i].Misaligned() {
			t.Errorf("block %d should be misaligned", i)
		}
	}
}

func TestLCPBlockMixedPattern(t *testing.T) {
	b := LCPBlock(0x2000, 16, true)
	if got := len(b.Insts); got != 33 {
		t.Fatalf("mixed LCP block insts = %d, want 33 (32 adds + jmp)", got)
	}
	for i := 0; i < 32; i++ {
		wantLCP := i%2 == 1
		if b.Insts[i].HasLCP() != wantLCP {
			t.Errorf("inst %d LCP = %v, want %v", i, b.Insts[i].HasLCP(), wantLCP)
		}
	}
}

func TestLCPBlockOrderedPattern(t *testing.T) {
	b := LCPBlock(0x2000, 16, false)
	for i := 0; i < 16; i++ {
		if b.Insts[i].HasLCP() {
			t.Errorf("inst %d should be a normal add", i)
		}
	}
	for i := 16; i < 32; i++ {
		if !b.Insts[i].HasLCP() {
			t.Errorf("inst %d should carry an LCP", i)
		}
	}
}

func TestNopBlock(t *testing.T) {
	b := NopBlock(0x3000, 100)
	if got := len(b.Insts); got != 101 {
		t.Fatalf("NopBlock insts = %d, want 101", got)
	}
	if got := b.UOps(); got != 101 {
		t.Errorf("NopBlock uops = %d, want 101", got)
	}
	// The paper's fingerprinting loop (100 nops) must exceed the 64-uop
	// LSD capacity but fit in the DSB.
	if b.UOps() <= 64 {
		t.Error("100-nop loop should exceed LSD capacity")
	}
}

func TestLoadBlock(t *testing.T) {
	b := LoadBlock(0x4000, []uint64{0x100, 0x200})
	if len(b.Insts) != 3 {
		t.Fatalf("LoadBlock insts = %d, want 3", len(b.Insts))
	}
	if b.Insts[0].MemAddr != 0x100 || b.Insts[1].MemAddr != 0x200 {
		t.Error("LoadBlock data addresses wrong")
	}
}

func TestInstHelpers(t *testing.T) {
	j := Inst{Addr: 10, Len: 2, Kind: Jmp}
	if !j.IsBranch() {
		t.Error("jmp should be a branch")
	}
	if j.End() != 12 {
		t.Errorf("End = %d, want 12", j.End())
	}
	l := Inst{Kind: AddLCP}
	if !l.HasLCP() {
		t.Error("AddLCP should report LCP")
	}
	if (Inst{Kind: Mov}).IsBranch() {
		t.Error("mov is not a branch")
	}
}

// TestCrossesWindowExhaustive checks the offset arithmetic against the
// window comparison it must equal, for every byte offset in a 64-byte
// span and every instruction length, including zero-length instructions
// and addresses whose End() wraps past 2^64.
func TestCrossesWindowExhaustive(t *testing.T) {
	for _, base := range []uint64{0, codeBase, ^uint64(0) - 63} {
		for off := uint64(0); off < 64; off++ {
			for n := 0; n < 256; n++ {
				in := Inst{Addr: base + off, Len: uint8(n)}
				want := Window(in.End()-1) != Window(in.Addr)
				if got := in.CrossesWindow(); got != want {
					t.Fatalf("Addr %#x Len %d: CrossesWindow = %v, want %v", in.Addr, n, got, want)
				}
			}
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Mov: "mov", Add: "add", AddLCP: "add66", Jmp: "jmp", Nop: "nop", Load: "load", Store: "store"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestSetTargetPanicsWithoutJmp(t *testing.T) {
	b := &Block{Insts: []Inst{{Kind: Mov, Len: 6, UOps: 1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.SetTarget(0x1234)
}
