// Command perfbench is the repository's benchmark. It runs one named
// workload over the simulator, the leakage fuzzer or the serving daemon,
// checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sweep-space --seed 1 --seconds 25 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) wraps each call into a program layer in a span and
// reports per-layer metrics instead. See README.md for the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	out      string // directory for traces and scratch state
}

// instance is one set-up workload. The harness times work, never check.
type instance interface {
	// prelude runs the workload's untimed, checked work before the
	// first timed round: work too long or too different to repeat in
	// every round.
	prelude(traced bool) error
	// work runs round r's fixed work. t is nil on an untraced run's
	// rounds; a traced run calls it with r = 0 and a tracer, recording
	// or not (see tracer).
	work(r int, t *tracer) error
	// check verifies round r's outputs.
	check(r int, t *tracer)
	// report adds the workload's per-layer metrics from the traced
	// run's first pair of rounds; t is its recording tracer.
	report(m map[string]float64, t *tracer)
	close()
}

// workload is a named benchmark scenario; BENCHMARK.json and README.md
// say why each exists.
type workload struct {
	name string
	// setupReps is how many fresh processes set-up is timed in;
	// setup_s is the median.
	setupReps int
	setup     func(c config, tl *tally) (instance, error)
}

var workloads = []workload{
	{"sweep-space", 9, newSweepSpace},
	{"steady-loops", 9, newSteadyLoops},
	{"fuzz-campaign", 9, newFuzzCampaign},
	{"serve-mixed", 5, newServeMixed},
}

// roundSeed is round r's input seed: the run seed itself for round 0,
// so a run's first round is reproducible from --seed alone.
func roundSeed(seed uint64, r int) uint64 {
	if r == 0 {
		return seed
	}
	return rng.SplitSeed(seed, fmt.Sprintf("round-%d", r))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed (0 means 1)")
	seconds := fs.Int("seconds", 20, "measurement time per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for traces and scratch state")
	setupOnly := fs.Bool("setup-only", false, "set the workload up, print \"ready\" and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, wl := range workloads {
			names[i] = wl.name
		}
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	c := config{workload: w.name, seed: max(*seed, 1), seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *setupOnly {
		var tl tally
		inst, err := w.setup(c, &tl)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: setup: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		inst.close()
		return 0
	}
	res, err := measure(*w, c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure sets the workload up, runs its prelude and measures it: an
// untraced run runs rounds of its fixed work until the next round would
// overrun the measurement time, a traced run measures pairs of round 0
// (see measureTraced). Every round is checked.
func measure(w workload, c config) (result, error) {
	var tl tally
	var setups []float64
	if !c.traced {
		var err error
		if setups, err = timeSetups(w, c); err != nil {
			return result{}, err
		}
	}
	inst, err := w.setup(c, &tl)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	if err := inst.prelude(c.traced); err != nil {
		return result{}, fmt.Errorf("prelude: %w", err)
	}

	m := map[string]float64{}
	defs := endToEnd
	if c.traced {
		defs = perLayer
		if err := measureTraced(w, c, inst, m); err != nil {
			return result{}, err
		}
	} else {
		var walls, cpus []float64
		start := time.Now()
		for r := 0; ; r++ {
			wall, cpu, err := timeRound(inst, r, nil)
			if err != nil {
				return result{}, err
			}
			walls, cpus = append(walls, wall), append(cpus, cpu)
			inst.check(r, nil)
			if time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > c.seconds {
				break
			}
		}
		logf("%s seed %d: setup %.4f s (median of %d), round walls %.3f s, cpu %.3f s",
			w.name, c.seed, median(setups), len(setups), walls, cpus)
		m["setup_s"] = median(setups)
		m["wall_s"] = median(walls)
		m["cpu_s"] = median(cpus)
	}
	res := result{Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		if !c.traced && v <= 0 {
			return result{}, fmt.Errorf("end-to-end metric %s measured %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if extra := undeclared(m); len(extra) > 0 {
		return result{}, fmt.Errorf("workload set undeclared metrics %v", extra)
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// timeRound runs round r's work and returns its wall and CPU seconds.
func timeRound(inst instance, r int, t *tracer) (wall, cpu float64, err error) {
	w0, c0 := time.Now(), cpuTime()
	if err := inst.work(r, t); err != nil {
		return 0, 0, fmt.Errorf("round %d: %w", r, err)
	}
	return time.Since(w0).Seconds(), (cpuTime() - c0).Seconds(), nil
}

// tracePairs is how many traced/untraced pairs of round 0 a traced run
// measures at most; it starts another pair only while that would end
// within traceBudget times the measurement time.
const (
	tracePairs  = 5
	traceBudget = 2
)

// measureTraced runs round 0 in pairs: once with a recording tracer and
// once through the same layer calls with a tracer that records nothing,
// alternating which runs first. The first pair's recording tracer gives
// the per-layer metrics; the tracing overhead is the median over pairs
// of traced minus untraced wall time.
func measureTraced(w workload, c config, inst instance, m map[string]float64) error {
	var t *tracer // the first pair's recording tracer
	var ms0, ms1 runtime.MemStats
	var overheads, tracedWalls, plainCPUs []float64
	start := time.Now()
	for p := 0; p < tracePairs; p++ {
		p0 := time.Now()
		var tracedWall, plainWall float64
		for i := 0; i < 2; i++ {
			record := i == p%2
			rt := newTracer(w.name, record)
			if record && p == 0 {
				t = rt
				runtime.ReadMemStats(&ms0)
			}
			wall, cpu, err := timeRound(inst, 0, rt)
			if err != nil {
				return err
			}
			if record && p == 0 {
				runtime.ReadMemStats(&ms1)
			}
			if record {
				tracedWall = wall
			} else {
				plainWall = wall
				plainCPUs = append(plainCPUs, cpu)
			}
			inst.check(0, rt)
		}
		overheads = append(overheads, tracedWall-plainWall)
		tracedWalls = append(tracedWalls, tracedWall)
		if p == 0 {
			inst.report(m, t)
		}
		pair := time.Since(p0)
		if time.Since(start)+pair > traceBudget*c.seconds {
			break
		}
	}
	logf("%s seed %d: %d traced/untraced pairs, tracing overhead %.3f s", w.name, c.seed, len(overheads), overheads)

	t.tr.Finish()
	spans := t.tr.Spans()
	self := selfTimes(spans)
	bySelf := layerSelf(self)
	for _, layer := range layers {
		m[layer+".self_s"] = bySelf[layer]
	}
	t.counts.get().put(m)
	if cyc := m["cpu.sim_cycles"]; cyc > 0 {
		m["cpu.ns_per_sim_cycle"] = median(plainCPUs) * 1e9 / cyc
	}
	m["channel.calibrate_s"] = self["channel.calibrate"]
	m["channel.transmit_s"] = self["channel.transmit"]
	m["trace.wall_s"] = median(tracedWalls)
	m["trace.overhead_s"] = median(overheads)
	m["trace.pairs"] = float64(len(overheads))
	m["trace.spans"] = float64(len(spans))
	m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["go.peak_rss_mb"] = peakRSSMB()
	return writeTrace(c, t)
}

// timeSetups times the workload's set-up in w.setupReps fresh processes
// of this program, from process start until set-up is done, so work a
// change moves into program start-up or package initialization counts
// as set-up too.
func timeSetups(w workload, c config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < w.setupReps; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", w.name,
			"-seed", strconv.FormatUint(c.seed, 10), "-out", c.out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0).Seconds()
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("setup process: %q, %v, %v", line, rerr, werr)
		}
		out = append(out, d)
	}
	return out, nil
}

// undeclared lists metric names set in m that no metric list declares.
func undeclared(m map[string]float64) []string {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var out []string
	for k := range m {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// writeTrace exports the traced round's spans as NDJSON.
func writeTrace(c config, t *tracer) error {
	path := filepath.Join(c.out, fmt.Sprintf("perfbench-trace-%s-seed%d.ndjson", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteNDJSON(f, t.tr); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
