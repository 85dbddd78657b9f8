package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/channel"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// The sweep-space scale: every enumerated spec with p clamped to 100,
// a 2-bit message and a 2-bit calibration preamble, on one worker. At
// this scale a spec's calibration sends as many bits as its message,
// per-spec build and clone weigh more than at larger scales, and a round
// (4 to 7 s on the 2-vCPU development host) repeats several times
// within a run; one worker keeps the scheduler out of the figure.
const (
	sweepBits    = 2
	sweepCalib   = 2
	sweepMaxP    = 100
	sweepWorkers = 1
	// sweepCheckRows is how many rows per round are re-run through
	// sweep.Direct and compared byte for byte.
	sweepCheckRows = 4
)

// sweepSpace runs the whole ChannelSpec space per round. Untraced rounds
// go through sweep.Run with the default memoized runner, exactly as
// leakysweep does. A traced run's rounds use tracedRunner instead, a
// benchmark-side copy of sweep.Memo's runner that makes the same calls —
// spec.Build, channel.NewCalibrationCtx, CloneChannel,
// channel.TransmitCalibrated — so each gets a span and the simulated
// cores can be read. A change inside sweep.Memo or spec.CalibrateCtx
// therefore does not move the traced figures, except sweep.memo_*.
type sweepSpace struct {
	c     config
	tl    *tally
	specs int // size of the expanded space

	reports map[int]sweep.Report

	// memoHits and memoMisses are the default memo's on the last
	// untraced round.
	memoHits, memoMisses int
}

func newSweepSpace(c config, tl *tally) (instance, error) {
	specs, err := sweep.Expand(sweep.Filter{}, sweepOpts(c.seed))
	if err != nil {
		return nil, err
	}
	return &sweepSpace{c: c, tl: tl, specs: len(specs), reports: map[int]sweep.Report{}}, nil
}

func sweepOpts(seed uint64) sweep.Options {
	return sweep.Options{Bits: sweepBits, Seed: seed, CalibBits: sweepCalib, MaxP: sweepMaxP, Workers: sweepWorkers}
}

func (s *sweepSpace) prelude(bool) error { return nil }

func (s *sweepSpace) work(r int, t *tracer) error {
	o := sweepOpts(roundSeed(s.c.seed, r))
	run := sweep.RunFunc(nil)
	before := sweep.DefaultMemo.Len()
	if t != nil {
		run = s.tracedRunner(t)
	}
	rep, err := sweep.Run(context.Background(), sweep.Filter{}, o, run, nil)
	if err != nil {
		return err
	}
	if t == nil {
		// The memo holds one entry per calibration key it missed on.
		miss := sweep.DefaultMemo.Len() - before
		s.memoMisses, s.memoHits = miss, rep.Specs-miss
	}
	s.reports[r] = rep
	return nil
}

// check counts every spec as an operation and re-runs a seed-chosen
// sample of rows through the unmemoized sweep.Direct path.
func (s *sweepSpace) check(r int, _ *tracer) {
	rep := s.reports[r]
	delete(s.reports, r)
	s.tl.attempt(len(rep.Rows))
	s.tl.check(rep.Specs == s.specs, "sweep-space round %d swept %d specs, set-up expanded %d", r, rep.Specs, s.specs)
	for _, row := range rep.Rows {
		if row.Err != "" {
			s.tl.fail("sweep-space: %s: %s", row.Canonical, row.Err)
		}
	}
	for _, idx := range checkSample(roundSeed(s.c.seed, r), len(rep.Rows), sweepCheckRows) {
		row := rep.Rows[idx]
		direct := sweep.Row{Spec: row.Spec, Canonical: row.Spec.String()}
		if res, err := sweep.Direct(context.Background(), row.Spec, rep.Bits); err != nil {
			direct.Err = err.Error()
		} else {
			direct.RateKbps, direct.ErrorRate = res.RateKbps, res.ErrorRate
		}
		got, _ := json.Marshal(direct) // a Row always marshals
		want, _ := json.Marshal(row)
		s.tl.check(string(got) == string(want),
			"sweep-space: row %d differs from sweep.Direct:\n  sweep:  %s\n  direct: %s", idx, want, got)
	}
}

// checkSample picks k of n indexes from seed, deterministically.
func checkSample(seed uint64, n, k int) []int {
	return rng.New(rng.SplitSeed(seed, "check")).Perm(n)[:min(k, n)]
}

// calibrated is one memoized calibration of the traced runner.
type calibrated struct {
	once  sync.Once
	err   error
	th    stats.Threshold
	proto *timedChannel
	model string
}

// tracedRunner mirrors sweep.Memo's RunFunc — calibrate once per
// calibration key, transmit each message from a clone of the
// calibrated snapshot — with a span around each layer call.
func (s *sweepSpace) tracedRunner(t *tracer) sweep.RunFunc {
	var mu sync.Mutex
	memo := map[string]*calibrated{}
	return func(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error) {
		sp := t.start(nil, "sweep.spec")
		defer sp.endSample("sweep.spec")
		rc := runctx.New(ctx, nil)
		key := cs.CalibrationKey()
		mu.Lock()
		cal, hit := memo[key]
		if !hit {
			cal = &calibrated{}
			memo[key] = cal
		}
		mu.Unlock()
		cal.once.Do(func() { cal.err = s.calibrate(rc, t, sp, cs, cal) })
		if cal.err != nil {
			return channel.Result{}, cal.err
		}
		ch := cal.proto.cloneUnder(sp)
		start := snapshot(ch)
		tsp := t.start(sp, "channel.transmit")
		ch.parent = tsp
		res, err := channel.TransmitCalibrated(rc, ch, cal.model, channel.Alternating(bits), cal.th)
		tsp.end()
		t.addCounts(snapshot(ch).sub(start))
		return res, err
	}
}

// calibrate builds cs's channel and runs its calibration preamble,
// keeping the snapshot channel.NewCalibrationCtx takes of it.
func (s *sweepSpace) calibrate(rc runctx.Ctx, t *tracer, parent *span, cs spec.ChannelSpec, cal *calibrated) error {
	m, err := cs.ResolveModel()
	if err != nil {
		return err
	}
	if err := cs.ValidateFor(m); err != nil {
		return err
	}
	cs = cs.Normalize()
	bsp := t.start(parent, "spec.build")
	built := cs.Build(m)
	bsp.endSample("spec.build")
	cl, ok := built.(channel.Cloneable)
	if !ok {
		return fmt.Errorf("%s builds a non-cloneable channel", cs)
	}
	csp := t.start(parent, "channel.calibrate")
	w := &timedChannel{Cloneable: cl, t: t, parent: csp, sink: string(cs.Sink)}
	c, err := channel.NewCalibrationCtx(rc, w, m.Name, cs.CalibBits)
	csp.end()
	if err != nil {
		return err
	}
	t.addCounts(snapshot(w))
	cal.th, cal.proto, cal.model = c.Threshold, w.lastClone, m.Name
	return nil
}

func (s *sweepSpace) report(m map[string]float64, t *tracer) {
	// The memo figures are sweep.Memo's own: one more round 0 through
	// the default runner, which no traced round has used.
	if err := s.work(0, nil); err != nil {
		s.tl.fail("sweep-space: default-runner round: %v", err)
	} else {
		s.check(0, nil)
	}
	m["sweep.memo_hits"] = float64(s.memoHits)
	m["sweep.memo_misses"] = float64(s.memoMisses)
	specs := t.samplesOf("sweep.spec")
	m["sweep.spec_p50_ms"] = percentile(specs, 0.5) * 1e3
	m["sweep.spec_max_s"] = percentile(specs, 1)
	m["spec.build_us"] = median(t.samplesOf("spec.build")) * 1e6
	m["cpu.clone_us"] = median(t.samplesOf("cpu.clone")) * 1e6
	m["attack.sendbit_timing_us"] = median(t.samplesOf("attack.sendbit_timing")) * 1e6
	m["attack.sendbit_power_us"] = median(t.samplesOf("attack.sendbit_power")) * 1e6
}

func (s *sweepSpace) close() {}
