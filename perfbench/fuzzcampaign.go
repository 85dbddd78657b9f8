package main

import (
	"reflect"
	"strings"

	"repro/internal/contract"
	"repro/internal/cpu"
	"repro/internal/leakfuzz"
)

// refBudget is the reference campaign's evaluation budget. At seed 1 it
// covers execution 3103, whose unclassified stall_cycles divergence is
// a known classification gap the benchmark reports in
// leakfuzz.unclassified.
const refBudget = 4000

// fuzzExpect are the paper's channel families every campaign must
// rediscover.
var fuzzExpect = []contract.Mechanism{contract.Eviction, contract.Misalignment, contract.SlowSwitch}

// fuzzCampaign runs leakfuzz campaigns on the Gold 6226. Before the
// timed rounds it runs the reference campaign at --seed with budget
// refBudget; leakfuzz.* report it. Each round then runs a batch of
// smaller campaigns at seeds split from --seed. Each finding is
// re-checked through contract.CheckTraces, an independent path from the
// fuzzer's own executor loop.
type fuzzCampaign struct {
	c      config
	tl     *tally
	model  cpu.Model
	params contract.Params

	reps    []leakfuzz.Report // the current round's
	traced0 []leakfuzz.Report // a traced run's first round 0
	ref     leakfuzz.Report   // the reference campaign at --seed
	refSecs float64
	// windows counts the observation windows of the latest traced
	// round's contract re-checks.
	windows int
}

// Each round runs fuzzBatch campaigns of budget fuzzBudget one after
// another. A campaign's cost depends on its seed (0.37 s to 0.56 s at
// budget 1000 across twelve seeds on the development host, the same at
// one seed), which a batch averages out. Budget 1000 leaves a wide
// margin for rediscovery: over 300 seeds, a campaign had found all
// three families by execution 59 at the median, 212 at the 99th
// percentile and 340 at worst.
const (
	fuzzBatch  = 4
	fuzzBudget = 1000
)

func newFuzzCampaign(c config, tl *tally) (instance, error) {
	return &fuzzCampaign{c: c, tl: tl, model: cpu.Gold6226(), params: contract.DefaultParams(),
		reps: make([]leakfuzz.Report, fuzzBatch)}, nil
}

// prelude runs and checks the reference campaign.
func (f *fuzzCampaign) prelude(bool) error {
	tm := startTimer()
	f.ref = leakfuzz.Run(leakfuzz.Options{Model: f.model, Seed: f.c.seed, Budget: refBudget, Params: f.params})
	f.refSecs = tm.seconds()
	f.checkReport(f.ref, refBudget, nil, false)
	return nil
}

// work runs round r's batch of campaigns, at seeds split from --seed
// (never --seed itself, the reference campaign's).
func (f *fuzzCampaign) work(r int, t *tracer) error {
	for i := range f.reps {
		sp := t.start(nil, "leakfuzz.run")
		seed := roundSeed(f.c.seed, 1+r*fuzzBatch+i)
		f.reps[i] = leakfuzz.Run(leakfuzz.Options{Model: f.model, Seed: seed, Budget: fuzzBudget, Params: f.params})
		sp.end()
	}
	return nil
}

func (f *fuzzCampaign) check(r int, t *tracer) {
	if t.recording() {
		f.windows = 0
	}
	if t != nil {
		// A campaign is a pure function of (model, seed, budget): a
		// traced run's repeats of round 0 must find exactly the same.
		if f.traced0 == nil {
			f.traced0 = append([]leakfuzz.Report(nil), f.reps...)
		}
		f.tl.check(reflect.DeepEqual(f.reps, f.traced0), "fuzz-campaign seed %d: repeated round 0 differs", f.c.seed)
	}
	for i, rep := range f.reps {
		// A traced round re-checks its first campaign's corpus too.
		f.checkReport(rep, fuzzBudget, t, i == 0)
	}
}

// checkReport checks one campaign: it rediscovered the paper's channel
// families, and every finding rechecks through the contract.
func (f *fuzzCampaign) checkReport(rep leakfuzz.Report, budget int, t *tracer, corpus bool) {
	f.tl.attempt(rep.Executions)
	found := map[contract.Mechanism]bool{}
	for _, fd := range rep.Findings {
		found[fd.Mechanism] = true
	}
	for _, mech := range fuzzExpect {
		f.tl.check(found[mech], "fuzz-campaign seed %d: %s not rediscovered in %d executions", rep.Seed, mech, rep.Executions)
	}
	f.tl.check(rep.Executions >= budget, "fuzz-campaign seed %d: %d executions, budget %d", rep.Seed, rep.Executions, budget)
	for _, fd := range rep.Findings {
		_, _, d, leak, mech := f.recheck(t, rep.Seed, fd.Genome)
		f.tl.check(leak && mech == fd.Mechanism && reflect.DeepEqual(d, fd.Divergence),
			"fuzz-campaign seed %d: %s finding at execution %d rechecks as leak=%v %s %v (fuzzer: %v)",
			rep.Seed, fd.Mechanism, fd.Executions, leak, mech, d, fd.Divergence)
	}
	if !t.recording() || !corpus {
		return
	}
	// A traced round also re-checks the whole final corpus, so the
	// contract layer has enough calls to time.
	for _, g := range rep.Corpus {
		f.recheck(t, rep.Seed, g)
	}
}

// recheck runs one genome's secret pair through contract.CheckTraces
// and classifies any divergence.
func (f *fuzzCampaign) recheck(t *tracer, seed uint64, g leakfuzz.Genome) (t0, t1 contract.Trace, d contract.Divergence, leak bool, mech contract.Mechanism) {
	sp := t.start(nil, "contract.check")
	t0, t1, d, leak = contract.CheckTraces(f.model, seed, f.params, g.BuildPair())
	sp.endSample("contract.check")
	if t.recording() {
		f.windows += len(t0) + len(t1)
	}
	mech = contract.Unknown
	if leak {
		mech = contract.Classify(t0, t1)
	}
	return t0, t1, d, leak, mech
}

func (f *fuzzCampaign) report(m map[string]float64, t *tracer) {
	rep := f.ref
	unclassified := 0
	var mechs []string
	for _, fd := range rep.Findings {
		mechs = append(mechs, string(fd.Mechanism))
		if fd.Mechanism == contract.Unknown {
			unclassified++
		}
	}
	m["leakfuzz.executions"] = float64(rep.Executions)
	m["leakfuzz.execs_per_s"] = float64(rep.Executions) / f.refSecs
	m["leakfuzz.coverage_features"] = float64(rep.Features)
	m["leakfuzz.corpus"] = float64(rep.CorpusSize)
	m["leakfuzz.findings"] = float64(len(rep.Findings))
	m["leakfuzz.unclassified"] = float64(unclassified)
	logf("fuzz-campaign seed %d findings: %s", rep.Seed, strings.Join(mechs, ","))

	// The campaigns' cores stay inside leakfuzz, so cpu.* and
	// frontend.* read 0 here. The contract figures are the benchmark's
	// re-check of the traced round's findings and its first campaign's
	// corpus, not the fuzzer's own executions.
	m["contract.check_us"] = median(t.samplesOf("contract.check")) * 1e6
	m["contract.windows"] = float64(f.windows)
}

func (f *fuzzCampaign) close() {}
