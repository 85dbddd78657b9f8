package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/runctx"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The serve-mixed scale. Channel runs and the warm sweep and advisory
// share one message length, seed and sweep scale, so the warm reads'
// rows are the same cache entries as the warm channel-run keys.
// The request shares, the Zipf exponent, the fresh-key pool and the LRU
// size are assumed, not measured (no leakyfed traffic record exists);
// README.md gives the reason for each.
const (
	serveBits    = 16
	serveCalib   = 6    // the advisory endpoint's default calibration width
	serveMaxP    = 2000 // the advisory endpoint's default p clamp
	serveWorkers = 2
	serveLRU     = 24 // LRU entries, fewer than the keys a run touches
	// serveWarmModel's advisory is warmed during set-up, and
	// serveWarmFilter selects a sweep over part of the same rows.
	serveWarmModel  = "Xeon E-2288G"
	serveWarmFilter = "model=Xeon E-2288G,mech=slowswitch"
	// Each round gives each of the two clients serveRequests requests.
	serveClients  = 2
	serveRequests = 1000
	// serveFreshKeys is each client's pool of first-seen keys per round,
	// drawn Zipf-distributed with exponent serveZipf.
	serveFreshKeys = 160
	serveZipf      = 1.1
	// serveCheckRuns responses per round are compared with a direct
	// spec.TransmitCtx of the same key.
	serveCheckRuns = 3
)

// Request classes.
const (
	classRunHit   = "run_hit"
	classRunMiss  = "run_miss"
	classSweep    = "sweep"
	classAdvisory = "advisory"
)

var serveClasses = []string{classRunHit, classRunMiss, classSweep, classAdvisory}

// request is one generated request. Run requests carry their spec; the
// class is what the request must be by construction: a client's first
// request for a fresh key simulates (run_miss), and every later request
// for it, or for a warm row, is served from the LRU or the store.
type request struct {
	class string
	spec  spec.ChannelSpec // run requests only
	ident string           // identity: equal idents must get equal bytes
}

// outcome is one completed request.
type outcome struct {
	req     request
	status  int
	latency time.Duration
	body    []byte
	err     error
}

// serveMixed drives an in-process leakyfed over loopback with two
// closed-loop clients. Each client owns its fresh keys, so a repeat can
// never coincide with the key's first, simulating request.
type serveMixed struct {
	c  config
	tl *tally

	dir     string
	st      *store.Store
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	warm    []spec.ChannelSpec // the warm advisory's rows
	digests map[string][32]byte

	rounds   int       // rounds run so far
	outcomes []outcome // the current round's
	byClass  map[string][]float64
	requests int                // completed, over all rounds
	elapsed  float64            // seconds, over all rounds
	last     map[string]float64 // the latest /metrics scrape
	// traced holds the /metrics deltas over the traced round and
	// tracedRuns its channel-run responses.
	traced     map[string]float64
	tracedRuns []outcome
}

func newServeMixed(c config, tl *tally) (instance, error) {
	dir, err := os.MkdirTemp(c.out, "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Opts:      experiments.Opts{Bits: serveBits, Seed: c.seed},
		Workers:   serveWorkers,
		CacheSize: serveLRU,
		Store:     st,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveMixed{
		c: c, tl: tl, dir: dir, st: st, srv: srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		digests: map[string][32]byte{},
		byClass: map[string][]float64{},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmUp simulates the warm advisory's rows, then checks that a sweep
// over part of them is served without simulating.
func (s *serveMixed) warmUp() error {
	specs, err := sweep.Expand(sweep.AdvisoryFilter(serveWarmModel), sweep.Options{Bits: serveBits, Seed: s.c.seed, CalibBits: serveCalib, MaxP: serveMaxP})
	if err != nil {
		return err
	}
	s.warm = specs
	for _, req := range []request{s.advisoryReq(), s.sweepReq()} {
		before, err := s.scrape()
		if err != nil {
			return err
		}
		out := s.do(req)
		if out.err != nil || out.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %v", req.ident, out.status, out.err)
		}
		after, err := s.scrape()
		if err != nil {
			return err
		}
		misses := after["leakyfed_cache_misses_total"] - before["leakyfed_cache_misses_total"]
		if req.class == classSweep && misses != 0 {
			return fmt.Errorf("warm sweep simulated %v specs; its rows should be the advisory's", misses)
		}
		s.digests[req.ident] = sha256.Sum256(out.body)
		s.last = after
	}
	return nil
}

func (s *serveMixed) advisoryReq() request {
	return request{class: classAdvisory, ident: "GET /v1/advisories/" + serveWarmModel}
}

func (s *serveMixed) sweepReq() request {
	return request{class: classSweep, ident: "POST /v1/sweeps " + serveWarmFilter}
}

// requestList generates client cl's request list for the n-th round the
// instance runs.
func (s *serveMixed) requestList(n, cl int) []request {
	g := rng.New(rng.SplitSeed(roundSeed(s.c.seed, n), fmt.Sprintf("client-%d", cl)))
	models := cpu.Models()
	mechs := []spec.Mechanism{spec.MechanismEviction, spec.MechanismMisalignment, spec.MechanismSlowSwitch}
	fresh := make([]spec.ChannelSpec, serveFreshKeys)
	for i := 0; i < len(fresh); {
		cs := spec.ChannelSpec{
			Model:     models[g.Intn(len(models))].Name,
			Mechanism: mechs[g.Intn(len(mechs))],
			CalibBits: 4,
			Seed:      g.Uint64() | 1,
		}.Normalize()
		if cs.Validate() == nil {
			fresh[i] = cs
			i++
		}
	}
	zipf := zipfCDF(serveFreshKeys, serveZipf)
	seen := map[int]bool{}
	reqs := make([]request, serveRequests)
	for i := range reqs {
		switch u := g.Float64(); {
		case u < 0.06:
			reqs[i] = s.sweepReq()
		case u < 0.12:
			reqs[i] = s.advisoryReq()
		case u < 0.30:
			cs := s.warm[g.Intn(len(s.warm))]
			reqs[i] = request{class: classRunHit, spec: cs, ident: "run " + cs.String()}
		default:
			k := sort.SearchFloat64s(zipf, g.Float64())
			class := classRunHit
			if !seen[k] {
				seen[k], class = true, classRunMiss
			}
			reqs[i] = request{class: class, spec: fresh[k], ident: "run " + fresh[k].String()}
		}
	}
	return reqs
}

// zipfCDF returns the cumulative distribution of a Zipf law over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// do sends one request and reads the whole response.
func (s *serveMixed) do(req request) outcome {
	var hreq *http.Request
	var err error
	switch req.class {
	case classAdvisory:
		q := url.Values{"bits": {strconv.Itoa(serveBits)}, "seed": {strconv.FormatUint(s.c.seed, 10)},
			"calib": {strconv.Itoa(serveCalib)}, "maxp": {strconv.Itoa(serveMaxP)}}
		hreq, err = http.NewRequest(http.MethodGet, s.base+"/v1/advisories/"+url.PathEscape(serveWarmModel)+"?"+q.Encode(), nil)
	case classSweep:
		body := fmt.Sprintf(`{"filter":%q,"opts":{"bits":%d,"seed":%d},"calib":%d,"maxp":%d}`,
			serveWarmFilter, serveBits, s.c.seed, serveCalib, serveMaxP)
		hreq, err = http.NewRequest(http.MethodPost, s.base+"/v1/sweeps", strings.NewReader(body))
	default:
		body, _ := json.Marshal(map[string]any{"spec": req.spec, "opts": map[string]int{"bits": serveBits}})
		hreq, err = http.NewRequest(http.MethodPost, s.base+"/v1/channels/run", bytes.NewReader(body))
	}
	if err != nil {
		return outcome{req: req, err: err}
	}
	t0 := time.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		return outcome{req: req, err: err, latency: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{req: req, status: resp.StatusCode, body: b, err: err, latency: time.Since(t0)}
}

// work runs one round of requests. Every round draws fresh keys — by
// the count of rounds run, not r, since a traced run repeats round 0
// and a repeated key would no longer miss.
func (s *serveMixed) prelude(bool) error { return nil }

func (s *serveMixed) work(_ int, t *tracer) error {
	lists := make([][]request, serveClients)
	for cl := range lists {
		lists[cl] = s.requestList(s.rounds, cl)
	}
	s.rounds++
	results := make([][]outcome, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for cl := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, req := range lists[cl] {
				sp := t.start(nil, "serve."+req.class)
				out := s.do(req)
				sp.end()
				results[cl] = append(results[cl], out)
			}
		}()
	}
	wg.Wait()
	s.elapsed += time.Since(start).Seconds()
	s.outcomes = s.outcomes[:0]
	for _, rs := range results {
		s.outcomes = append(s.outcomes, rs...)
	}
	return nil
}

// check verifies the round's responses: every request succeeded, a
// repeated request got identical bytes, the daemon simulated exactly
// the first-seen keys, and sampled channel runs equal a direct
// spec.TransmitCtx of the same key.
func (s *serveMixed) check(r int, t *tracer) {
	misses := 0
	var runs []outcome
	for _, out := range s.outcomes {
		s.tl.attempt(1)
		if out.err != nil || out.status != http.StatusOK {
			s.tl.fail("serve-mixed: %s: status %d: %v %s", out.req.ident, out.status, out.err, out.body)
			continue
		}
		s.requests++
		s.byClass[out.req.class] = append(s.byClass[out.req.class], out.latency.Seconds()*1e3)
		switch out.req.class {
		case classRunMiss:
			misses++
			runs = append(runs, out)
		case classRunHit:
			runs = append(runs, out)
		}
		d := sha256.Sum256(out.body)
		if prev, ok := s.digests[out.req.ident]; ok {
			s.tl.check(prev == d, "serve-mixed: repeat of %s returned different bytes", out.req.ident)
		}
		s.digests[out.req.ident] = d
	}
	after, err := s.scrape()
	s.tl.check(err == nil, "serve-mixed: scrape /metrics: %v", err)
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - s.last[k]
	}
	s.last = after
	s.tl.check(delta["leakyfed_cache_misses_total"] == float64(misses) && delta["leakyfed_rejected_total"] == 0,
		"serve-mixed round %d: %v simulations and %v rejections for %d first-seen keys",
		r, delta["leakyfed_cache_misses_total"], delta["leakyfed_rejected_total"], misses)
	if t.recording() {
		s.traced, s.tracedRuns = delta, runs
	}
	for _, i := range checkSample(roundSeed(s.c.seed, s.rounds), len(runs), serveCheckRuns) {
		out := runs[i]
		want, err := expectedRunBody(out.req.spec)
		s.tl.check(err == nil && bytes.Equal(out.body, want),
			"serve-mixed: %s differs from spec.TransmitCtx (err %v):\n  served: %s\n  direct: %s", out.req.ident, err, out.body, want)
	}
}

// expectedRunBody renders what POST /v1/channels/run must return for
// cs: its direct spec.TransmitCtx transmission in the daemon's envelope.
func expectedRunBody(cs spec.ChannelSpec) ([]byte, error) {
	tres, err := cs.TransmitCtx(runctx.Background(), channel.Alternating(serveBits))
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(store.ChannelResult(cs, tres), "", "  ")
	return append(b, '\n'), err
}

func (s *serveMixed) report(m map[string]float64, t *tracer) {
	m["serve.req_per_s"] = float64(s.requests) / s.elapsed
	hit, miss := s.byClass[classRunHit], s.byClass[classRunMiss]
	m["serve.hit_p50_ms"] = percentile(hit, 0.5)
	m["serve.hit_p99_ms"] = percentile(hit, 0.99)
	m["serve.hit_samples"] = float64(len(hit))
	m["serve.miss_p50_ms"] = percentile(miss, 0.5)
	m["serve.miss_p95_ms"] = percentile(miss, 0.95)
	m["serve.miss_samples"] = float64(len(miss))
	for _, class := range serveClasses {
		m["serve.share_"+class] = float64(len(s.byClass[class])) / float64(s.requests)
		if p, beyond, ok := tailLevel(len(s.byClass[class])); ok {
			logf("serve-mixed %s: %d samples, highest tail with 10 beyond: p%g (%d beyond)", class, len(s.byClass[class]), 100*p, beyond)
		}
	}
	m["serve.sweep_ms"] = median(s.byClass[classSweep])
	m["serve.advisory_ms"] = median(s.byClass[classAdvisory])
	d := s.traced
	m["serve.cache_hits"] = d["leakyfed_cache_hits_total"]
	m["serve.cache_misses"] = d["leakyfed_cache_misses_total"]
	m["serve.deduplicated"] = d["leakyfed_deduplicated_total"]
	m["serve.rejected"] = d["leakyfed_rejected_total"]
	if n := d["leakyfed_queue_wait_seconds_count"]; n > 0 {
		m["serve.queue_wait_mean_ms"] = d["leakyfed_queue_wait_seconds_sum"] / n * 1e3
	}
	m["store.hits"] = d["leakyfed_store_hits_total"]
	m["store.puts"] = d["leakyfed_store_puts_total"]

	// Time the store layer directly on the traced round's channel-run
	// keys: each stored entry must equal the bytes that were served.
	ctx := context.Background()
	for _, out := range s.tracedRuns {
		key := store.ChannelKey(out.req.spec, serveBits)
		sp := t.start(nil, "store.get")
		res, ok := s.st.Get(ctx, key)
		sp.endSample("store.get")
		b, err := json.MarshalIndent(res, "", "  ")
		s.tl.check(ok && err == nil && bytes.Equal(append(b, '\n'), out.body),
			"serve-mixed: stored %s differs from the served bytes", out.req.ident)
		sp = t.start(nil, "store.put")
		err = s.st.Put(ctx, key, res)
		sp.endSample("store.put")
		s.tl.check(err == nil, "serve-mixed: store put %s: %v", out.req.ident, err)
	}
	m["store.get_us"] = median(t.samplesOf("store.get")) * 1e6
	m["store.put_us"] = median(t.samplesOf("store.put")) * 1e6
}

func (s *serveMixed) close() {
	s.srv.Close()
	if err := s.hs.Close(); err == nil {
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve-mixed: serve: %v", err)
		}
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// scrape reads /metrics into a map from sample name (with labels) to
// value.
func (s *serveMixed) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
