package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/fingerprint"
	"repro/internal/runctx"
	"repro/internal/spec"
	"repro/internal/victim"
)

// steadyOpts is the committed golden scale of internal/experiments.
var steadyOpts = experiments.Opts{Bits: 24, Samples: 25}

// steadyLoops runs Figure 12 (fingerprint distances: long victim loops
// with a RAPL update every cycle) through the experiments registry each
// round, at the round's seed, on one goroutine. Table V (the power sink,
// 120,000 loop iterations per bit) takes 11 s at its smallest scale, too
// long to repeat within a run, so it runs once before the timed rounds
// of a traced run: through the registry at golden seed 1 or 2 (by the
// parity of --seed), checked against the committed golden text and
// timed as experiments.tableV_s. A traced run's round adds Table V's
// channels transmitted from the benchmark (tracedTableV, a
// benchmark-side copy of the artifact's spec selection and its
// spec.Build and channel.TransmitCtx calls), so SendBit, the cores and
// their RAPL meters can be read, and one fingerprint.TraceCtx call per
// CNN victim to time the fingerprint layer on its own. A change inside
// the tableV artifact's own code therefore moves only
// experiments.tableV_s.
type steadyLoops struct {
	c          config
	tl         *tally
	tableV     experiments.Artifact
	fig12      experiments.Artifact
	golden     string
	goldenSeed uint64

	tracedRows []channel.Result // layer-path rows of the last traced-run round
	fig12Data  any
	fig12Seed  uint64
	err        error

	tableVSecs float64
	fig12Secs  []float64
}

func newSteadyLoops(c config, tl *tally) (instance, error) {
	reg := experiments.Default()
	tv, ok1 := reg.Get("tableV")
	f12, ok2 := reg.Get("figure12")
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("registry lacks tableV or figure12")
	}
	gs := 2 - c.seed%2
	golden, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", fmt.Sprintf("tableV_seed%d.golden", gs)))
	if err != nil {
		return nil, err
	}
	return &steadyLoops{c: c, tl: tl, tableV: tv, fig12: f12, golden: string(golden), goldenSeed: gs}, nil
}

func (s *steadyLoops) opts(seed uint64) experiments.Opts {
	o := steadyOpts
	o.Seed = seed
	return o
}

// prelude runs Table V through the registry on a traced run and checks it
// against the golden.
func (s *steadyLoops) prelude(traced bool) error {
	if !traced {
		return nil
	}
	tm := startTimer()
	_, text, err := s.tableV.Run(runctx.Background(), s.opts(s.goldenSeed))
	s.tableVSecs = tm.seconds()
	if err != nil {
		return err
	}
	s.tl.check(text == s.golden, "steady-loops: tableV at seed %d differs from its golden:\n%s", s.goldenSeed, text)
	return nil
}

func (s *steadyLoops) work(r int, t *tracer) error {
	s.err = nil
	if t != nil {
		rows, err := s.tracedTableV(t)
		if err != nil {
			return err
		}
		s.tracedRows = rows
	}
	s.fig12Seed = roundSeed(s.c.seed, r)
	sp := t.start(nil, "experiments.figure12")
	tm := startTimer()
	data, _, err := s.fig12.Run(runctx.Background(), s.opts(s.fig12Seed))
	sp.end()
	// Artifact times are taken on rounds that record no spans.
	if t != nil && !t.recording() {
		s.fig12Secs = append(s.fig12Secs, tm.seconds())
	}
	s.fig12Data, s.err = data, err
	if t != nil && err == nil {
		s.traceFingerprint(t)
	}
	return nil
}

// tableVSpecs is Table V's slice of the enumerated space, as the
// artifact selects it: the undefended power-sink specs of the Gold 6226.
func tableVSpecs(seed uint64) []spec.ChannelSpec {
	specs := spec.Filter(spec.Enumerate(cpu.Gold6226()), func(s spec.ChannelSpec) bool {
		return s.Sink == spec.SinkPower && s.Defense == defense.DefenseNone
	})
	for i := range specs {
		specs[i].Seed = seed
		specs[i].CalibBits = 6
	}
	return specs
}

// tracedTableV transmits Table V's specs through spec.Build and
// channel.TransmitCtx with SendBit timed, reading each core's counts.
func (s *steadyLoops) tracedTableV(t *tracer) ([]channel.Result, error) {
	tsp := t.start(nil, "experiments.tableV")
	defer tsp.end()
	bits := max(steadyOpts.Bits/12, 8) // the artifact's message length
	var rows []channel.Result
	for _, cs := range tableVSpecs(s.goldenSeed) {
		m, err := cs.ResolveModel()
		if err != nil {
			return nil, err
		}
		cs = cs.Normalize()
		bsp := t.start(tsp, "spec.build")
		built := cs.Build(m)
		bsp.endSample("spec.build")
		cl, ok := built.(channel.Cloneable)
		if !ok {
			return nil, fmt.Errorf("%s builds a non-cloneable channel", cs)
		}
		xsp := t.start(tsp, "channel.transmit")
		ch := &timedChannel{Cloneable: cl, t: t, parent: xsp, sink: string(cs.Sink)}
		res, err := channel.TransmitCtx(runctx.Background(), ch, m.Name, channel.Alternating(bits), cs.CalibBits)
		xsp.end()
		if err != nil {
			return nil, err
		}
		t.addCounts(snapshot(ch))
		rows = append(rows, res)
	}
	return rows, nil
}

// traceFingerprint times fingerprint.TraceCtx on each CNN victim. A
// trace simulates exactly SamplePeriod cycles per sample.
func (s *steadyLoops) traceFingerprint(t *tracer) {
	cfg := fingerprint.DefaultConfig(cpu.Gold6226())
	cfg.Seed, cfg.Samples = s.c.seed, steadyOpts.Samples
	for _, w := range victim.CNNs() {
		sp := t.start(nil, "fingerprint.trace")
		tr, err := fingerprint.TraceCtx(runctx.Background(), cfg, w)
		sp.endSample("fingerprint.trace")
		s.tl.check(err == nil && len(tr) == cfg.Samples, "fingerprint trace of %s: %d samples, err %v", w.Name, len(tr), err)
		t.addCounts(counts{cycles: cfg.SamplePeriod * uint64(cfg.Samples)})
	}
}

func (s *steadyLoops) check(r int, t *tracer) {
	s.tl.attempt(1)
	if s.err != nil {
		s.tl.fail("steady-loops round %d: figure12: %v", r, s.err)
		return
	}
	if t != nil {
		// The layer path must reproduce the golden's rows, in the
		// artifact's row format.
		var b strings.Builder
		for _, r := range s.tracedRows {
			fmt.Fprintf(&b, "%-26s %12.2f %9.2f%%\n", r.Channel, r.RateKbps, 100*r.ErrorRate)
		}
		s.tl.check(len(s.tracedRows) > 0 && strings.HasSuffix(s.golden, b.String()),
			"steady-loops: tableV through spec.Build/TransmitCtx differs from the seed-%d golden:\n%s", s.goldenSeed, b.String())
	}
	d, ok := s.fig12Data.(experiments.Figure12Data)
	s.tl.check(ok && d.CNN.Intra < d.CNN.Inter && d.Geekbench.Intra < d.Geekbench.Inter,
		"steady-loops: figure12 at seed %d lost intra < inter: %+v", s.fig12Seed, s.fig12Data)
}

func (s *steadyLoops) report(m map[string]float64, t *tracer) {
	// Figure 12 simulates two traces per victim of SamplePeriod cycles
	// per sample; its cores stay inside the artifact.
	cfg := fingerprint.DefaultConfig(cpu.Gold6226())
	traces := 2 * (len(victim.CNNs()) + len(victim.Geekbench()))
	t.addCounts(counts{cycles: cfg.SamplePeriod * uint64(steadyOpts.Samples*traces)})
	m["experiments.tableV_s"] = s.tableVSecs
	m["experiments.figure12_s"] = median(s.fig12Secs)
	m["fingerprint.trace_ms"] = median(t.samplesOf("fingerprint.trace")) * 1e3
	m["spec.build_us"] = median(t.samplesOf("spec.build")) * 1e6
	m["attack.sendbit_power_us"] = median(t.samplesOf("attack.sendbit_power")) * 1e6
}

func (s *steadyLoops) close() {}
