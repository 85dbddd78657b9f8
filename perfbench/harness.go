package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them on an untraced run, and none of them can be 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
}

// perLayer are the traced run's metrics, named by module. A layer a
// workload never calls reports 0: it did no work there.
var perLayer = []metricDef{
	{"cpu.sim_cycles", "count"},
	{"cpu.retired_uops", "count"},
	{"cpu.ns_per_sim_cycle", "ns"},
	{"cpu.clone_us", "us"},
	{"cpu.self_s", "s"},
	{"frontend.uops_dsb", "count"},
	{"frontend.uops_lsd", "count"},
	{"frontend.uops_mite", "count"},
	{"frontend.switches", "count"},
	{"power.rapl_reads", "count"},
	{"attack.sendbit_timing_us", "us"},
	{"attack.sendbit_power_us", "us"},
	{"attack.self_s", "s"},
	{"channel.calibrate_s", "s"},
	{"channel.transmit_s", "s"},
	{"sweep.spec_p50_ms", "ms"},
	{"sweep.spec_max_s", "s"},
	{"sweep.memo_hits", "count"},
	{"sweep.memo_misses", "count"},
	{"sweep.self_s", "s"},
	{"spec.build_us", "us"},
	{"spec.self_s", "s"},
	{"experiments.tableV_s", "s"},
	{"experiments.figure12_s", "s"},
	{"experiments.self_s", "s"},
	{"fingerprint.trace_ms", "ms"},
	{"fingerprint.self_s", "s"},
	{"contract.check_us", "us"},
	{"contract.windows", "count"},
	{"contract.self_s", "s"},
	{"leakfuzz.execs_per_s", "1/s"},
	{"leakfuzz.executions", "count"},
	{"leakfuzz.coverage_features", "count"},
	{"leakfuzz.corpus", "count"},
	{"leakfuzz.findings", "count"},
	{"leakfuzz.unclassified", "count"},
	{"leakfuzz.self_s", "s"},
	{"serve.req_per_s", "1/s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.hit_samples", "count"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p95_ms", "ms"},
	{"serve.miss_samples", "count"},
	{"serve.share_run_hit", "ratio"},
	{"serve.share_run_miss", "ratio"},
	{"serve.share_sweep", "ratio"},
	{"serve.share_advisory", "ratio"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.deduplicated", "count"},
	{"serve.rejected", "count"},
	{"serve.queue_wait_mean_ms", "ms"},
	{"serve.sweep_ms", "ms"},
	{"serve.advisory_ms", "ms"},
	{"serve.self_s", "s"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.hits", "count"},
	{"store.puts", "count"},
	{"store.self_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.peak_rss_mb", "MB"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.pairs", "count"},
	{"trace.spans", "count"},
}

// layers are the span-name prefixes whose self time the traced run
// reports as <layer>.self_s.
var layers = []string{"cpu", "attack", "sweep", "spec", "experiments", "fingerprint", "contract", "leakfuzz", "serve", "store"}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank position (1-based) of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n)))
	return max(1, min(r, n))
}

// percentile returns the nearest-rank percentile p (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailLevel returns the highest percentile in tailLevels that leaves at
// least ten samples beyond it in n samples, and how many it leaves. ok
// is false when even the median has fewer than ten beyond it.
func tailLevel(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailLevels {
		if b := n - rank(p, n); b >= 10 {
			return p, b, true
		}
	}
	return 0, 0, false
}

// tally counts attempted and failed operations. A failure is an
// operation that errored or an output that did not match its check.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail records one failed operation and says why on standard error.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	t.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// check attempts one check and records a failure when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempt(1)
	if !ok {
		t.fail(format, args...)
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tracer records benchmark-side spans around calls into the program's
// layers, and the exact counts read from the cores a round builds. A
// nil *tracer records nothing, so workload code calls it
// unconditionally; the spans live in the benchmark, never inside the
// program.
//
// A non-nil tracer selects the layer-path round: the workload makes the
// layer calls from its own code. One made with record false runs that
// same path without spans, which is what the tracing overhead is
// measured against.
type tracer struct {
	tr     *obs.Trace // nil when not recording
	root   *obs.Span
	counts countSink

	mu      sync.Mutex
	samples map[string][]float64 // per-call durations by sample name, in seconds
}

func newTracer(name string, record bool) *tracer {
	t := &tracer{samples: map[string][]float64{}}
	if record {
		t.tr = obs.NewTrace("perfbench", name)
		t.root = t.tr.Root()
	}
	return t
}

// recording reports whether t records spans.
func (t *tracer) recording() bool { return t != nil && t.tr != nil }

// addCounts adds exact simulator counts to the round's total.
func (t *tracer) addCounts(c counts) {
	if t != nil {
		t.counts.add(c)
	}
}

// span is one open benchmark span; end closes it and returns its
// duration.
type span struct {
	t     *tracer
	s     *obs.Span
	start time.Time
}

// start opens a span named "<layer>.<op>" under parent (nil: the root).
func (t *tracer) start(parent *span, name string) *span {
	if !t.recording() {
		return nil
	}
	p := t.root
	if parent != nil {
		p = parent.s
	}
	return &span{t: t, s: t.tr.StartSpan(p, name), start: time.Now()}
}

func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.s.End()
	return d
}

// endSample closes the span and records its duration under key.
func (s *span) endSample(key string) {
	if s == nil {
		return
	}
	s.t.sample(key, s.end().Seconds())
}

// sample records one per-call measurement (seconds) under key.
func (t *tracer) sample(key string, v float64) {
	if !t.recording() {
		return
	}
	t.mu.Lock()
	t.samples[key] = append(t.samples[key], v)
	t.mu.Unlock()
}

func (t *tracer) samplesOf(key string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[key]...)
}

// selfTimes returns each span name's total self time in seconds: its
// duration minus the part of it that child spans cover. Children of one
// parent may overlap (parallel workers), so their union is subtracted.
func selfTimes(spans []obs.SpanData) map[string]float64 {
	type iv struct{ a, b int64 }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].a < cs[j].a })
		covered, cur := int64(0), lo
		for _, c := range cs {
			a, b := max(c.a, cur), min(c.b, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out[s.Name] += float64(s.DurUS-covered) / 1e6
	}
	return out
}

// layerSelf sums self times by layer (the span-name prefix).
func layerSelf(self map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, v := range self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += v
	}
	return out
}

// timer measures one wall-clock interval.
type timer struct{ t time.Time }

func startTimer() timer { return timer{time.Now()} }

func (t timer) seconds() float64 { return time.Since(t.t).Seconds() }

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
