package branch

import "repro/internal/period"

// Clone returns a deep copy of the predictor: identical PHT, BTB, global
// history, and stats. The tables are value arrays, so a struct copy is a
// full snapshot.
func (p *Predictor) Clone() *Predictor {
	c := *p
	return &c
}

// Repeats reports whether p holds the same tables and history as prev;
// the statistics may differ.
func (p *Predictor) Repeats(prev *Predictor) bool {
	a := *p
	a.stats = prev.stats
	return a == *prev
}

// Extrapolate advances p by m more periods of the change from prev, for
// a p that Repeats prev: only the statistics move, linearly.
func (p *Predictor) Extrapolate(prev *Predictor, m uint64) {
	period.Counters(&p.stats, &prev.stats, m)
}
