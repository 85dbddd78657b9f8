package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{10000, 0.999, 10, true},
		{9999, 0.99, 99, true},
		{1000, 0.99, 10, true},
		{999, 0.95, 49, true},
		{100, 0.9, 10, true},
		{99, 0.5, 49, true},
		{20, 0.5, 10, true},
		{19, 0, 0, false},
		{0, 0, 0, false},
	} {
		p, beyond, ok := tailLevel(tc.n)
		if p != tc.p || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tailLevel(%d) = p%g, %d beyond, %v; want p%g, %d beyond, %v",
				tc.n, 100*p, beyond, ok, 100*tc.p, tc.beyond, tc.ok)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %v, want %v", 100*tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestRequestListIsDeterministicPerSeed(t *testing.T) {
	warm, err := sweep.Expand(sweep.AdvisoryFilter(serveWarmModel), sweep.Options{Bits: serveBits, Seed: 7, CalibBits: serveCalib, MaxP: serveMaxP})
	if err != nil {
		t.Fatal(err)
	}
	s := &serveMixed{c: config{seed: 7}, warm: warm}
	a, b := s.requestList(0, 1), s.requestList(0, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, round and client gave different request lists")
	}
	other := &serveMixed{c: config{seed: 8}, warm: warm}
	if reflect.DeepEqual(a, other.requestList(0, 1)) || reflect.DeepEqual(a, s.requestList(1, 1)) || reflect.DeepEqual(a, s.requestList(0, 0)) {
		t.Fatal("request lists do not depend on seed, round and client")
	}
	// A key's first request is its only miss.
	seen := map[string]bool{}
	for _, req := range a {
		switch req.class {
		case classRunMiss:
			if seen[req.ident] {
				t.Fatalf("%s marked as a miss twice", req.ident)
			}
			seen[req.ident] = true
		case classRunHit:
			if req.spec.Validate() != nil {
				t.Fatalf("invalid spec %s", req.ident)
			}
		}
	}
	if len(seen) == 0 || len(seen) == len(a) {
		t.Fatalf("%d misses in %d requests: want both hits and misses", len(seen), len(a))
	}
}

func TestCheckSampleIsDeterministicPerSeed(t *testing.T) {
	a := checkSample(3, 176, sweepCheckRows)
	if !reflect.DeepEqual(a, checkSample(3, 176, sweepCheckRows)) {
		t.Fatal("same seed gave different samples")
	}
	if reflect.DeepEqual(a, checkSample(4, 176, sweepCheckRows)) {
		t.Fatal("sample does not depend on the seed")
	}
	if len(a) != sweepCheckRows || len(checkSample(3, 2, sweepCheckRows)) != 2 {
		t.Fatal("sample size not min(k, n)")
	}
}

func TestMetricNamesAndLimits(t *testing.T) {
	if err := checkDefs(endToEnd, 16); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := checkDefs(perLayer, 128); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q", d.Name, d.Unit)
		}
	}
	for _, layer := range layers {
		if !declared(layer + ".self_s") {
			t.Errorf("layer %s has no %s.self_s metric", layer, layer)
		}
	}
}

func declared(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the workloads and
// metrics this program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var got []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, names)
	}
	for _, c := range []struct {
		list []struct{ Name, Unit string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		var want []metricDef
		for _, m := range c.list {
			want = append(want, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(want, c.defs) {
			t.Errorf("BENCHMARK.json lists %v, program reports %v", want, c.defs)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "sweep.spec", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "channel.calibrate", StartUS: 10, DurUS: 30},
		{ID: 3, Parent: 1, Name: "channel.transmit", StartUS: 30, DurUS: 30}, // overlaps 2
		{ID: 4, Parent: 3, Name: "attack.sendbit", StartUS: 35, DurUS: 5},
	}
	self := selfTimes(spans)
	want := map[string]float64{"sweep.spec": 50e-6, "channel.calibrate": 30e-6, "channel.transmit": 25e-6, "attack.sendbit": 5e-6}
	for k, v := range want {
		if d := self[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	if got := layerSelf(self)["channel"]; got < 55e-6-1e-12 || got > 55e-6+1e-12 {
		t.Errorf("channel layer self = %v, want 55e-6", got)
	}
}

func TestZipfCDF(t *testing.T) {
	cdf := zipfCDF(serveFreshKeys, serveZipf)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] <= cdf[i-1] {
			t.Fatalf("cdf not increasing at %d", i)
		}
	}
	if cdf[len(cdf)-1] != 1 || cdf[0] <= cdf[1]-cdf[0] {
		t.Fatalf("cdf %v: want last 1 and rank 1 the most likely", cdf[:3])
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep-space", "--trace", "2"},
		{"--workload", "sweep-space", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDefs validates a metric list against the benchmark contract's
// naming rules and size limit.
func checkDefs(defs []metricDef, limit int) error {
	if len(defs) == 0 || len(defs) > limit {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), limit)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}
