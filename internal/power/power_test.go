package power

import "testing"

func params() Params {
	p := DefaultParams(2.7)
	p.RAPLIntervalCycles = 100
	p.RAPLQuantum = 10
	return p
}

func TestEnergyAccrual(t *testing.T) {
	m := NewMeter(params())
	m.AddCycleDelta(0, 4, 0, 0, 4)
	want := m.P.StaticWatts + 4*m.P.EnergyDSBUOp + 4*m.P.EnergyRetireUOp
	if got := m.TrueEnergy(); got != want {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestPathEnergyOrdering(t *testing.T) {
	// Figure 9: at equal delivery rates, LSD < DSB < MITE power.
	mk := func(lsd, dsb, mite uint64) float64 {
		m := NewMeter(params())
		for i := 0; i < 1000; i++ {
			m.AddCycleDelta(lsd, dsb, mite, 0, 4)
		}
		return AvgWatts(m.TrueEnergy(), m.Cycles())
	}
	lsd := mk(4, 0, 0)
	dsb := mk(0, 4, 0)
	mite := mk(0, 0, 4)
	if !(lsd < dsb && dsb < mite) {
		t.Errorf("power ordering violated: LSD=%.1f DSB=%.1f MITE=%.1f", lsd, dsb, mite)
	}
}

func TestRAPLUpdateInterval(t *testing.T) {
	m := NewMeter(params())
	for i := 0; i < 50; i++ {
		m.AddCycleDelta(0, 4, 0, 0, 4)
	}
	if got := m.RAPLRead(); got != 0 {
		t.Errorf("counter published before interval elapsed: %v", got)
	}
	for i := 0; i < 60; i++ {
		m.AddCycleDelta(0, 4, 0, 0, 4)
	}
	if got := m.RAPLRead(); got == 0 {
		t.Error("counter not published after interval")
	}
}

func TestRAPLQuantization(t *testing.T) {
	m := NewMeter(params())
	for i := 0; i < 200; i++ {
		m.AddCycleDelta(0, 4, 0, 0, 4)
	}
	v := m.RAPLRead()
	if q := m.P.RAPLQuantum; v != float64(uint64(v/q))*q {
		t.Errorf("RAPL value %v not quantized to %v", v, q)
	}
	if v > m.TrueEnergy() {
		t.Error("published counter exceeds true energy")
	}
}

func TestRAPLReadsCounted(t *testing.T) {
	m := NewMeter(params())
	m.RAPLRead()
	m.RAPLRead()
	if m.RAPLReads() != 2 {
		t.Errorf("reads = %d, want 2", m.RAPLReads())
	}
}

func TestAvgWattsZeroCycles(t *testing.T) {
	if AvgWatts(100, 0) != 0 {
		t.Error("zero cycles should yield zero watts")
	}
}

func TestStallEnergy(t *testing.T) {
	m := NewMeter(params())
	m.AddCycleDelta(0, 0, 0, 1, 0)
	want := m.P.StaticWatts + m.P.EnergyStallCycle
	if got := m.TrueEnergy(); got != want {
		t.Errorf("stall energy = %v, want %v", got, want)
	}
}

// TestReplayMatchesAddCycleDelta pins that replaying recorded per-cycle
// energies accrues exactly the bits accruing each cycle does, across
// RAPL publications.
func TestReplayMatchesAddCycleDelta(t *testing.T) {
	type activity struct {
		lsd, dsb, mite, stall uint64
		retired               int
	}
	run := []activity{{4, 0, 0, 0, 4}, {0, 6, 0, 1, 3}, {0, 0, 5, 2, 4}, {0, 0, 0, 0, 0}, {1, 2, 3, 1, 2}}
	one, replayed := NewMeter(params()), NewMeter(params())
	energies := make([]float64, len(run))
	for i, a := range run {
		energies[i] = replayed.CycleEnergy(a.lsd, a.dsb, a.mite, a.stall, a.retired)
	}
	for rep := 0; rep < 77; rep++ {
		for _, a := range run {
			one.AddCycleDelta(a.lsd, a.dsb, a.mite, a.stall, a.retired)
		}
	}
	replayed.Replay(energies, 77)
	if *one != *replayed {
		t.Fatalf("replayed meter %+v differs from accrued %+v", *replayed, *one)
	}
	if one.RAPLRead() == 0 {
		t.Fatal("the run never published RAPL, so publication went untested")
	}
}
