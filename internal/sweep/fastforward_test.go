package sweep

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/channel"
	"repro/internal/cpu"
	"repro/internal/cpu/cputest"
	"repro/internal/runctx"
	"repro/internal/spec"
)

// TestFastForwardSweepIdentity checks the core's fast-forward against
// plain stepping over the whole spec space at the benchmark's
// sweep-space scale (2 message bits, 2 calibration bits, p clamped to
// 100), at seeds 1 and 2: the reports must be identical, and so must
// every spec's simulated cores at the end of its transmission —
// counters, cycle, recency stamps, power-meter energy and RAPL bits.
func TestFastForwardSweepIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("plain-steps the whole spec space twice")
	}
	for _, seed := range []uint64{1, 2} {
		o := Options{Bits: 2, CalibBits: 2, MaxP: 100, Workers: 1, Seed: seed}
		before := cpu.SkippedCycles()
		fastRep, fastCores := sweepWithCores(t, o)
		if cpu.SkippedCycles() == before {
			t.Fatalf("seed %d: the fast-forward never engaged", seed)
		}
		was := cpu.SetPlainStepping(true)
		plainRep, plainCores := sweepWithCores(t, o)
		cpu.SetPlainStepping(was)

		if !reflect.DeepEqual(fastRep, plainRep) || fastRep.Render() != plainRep.Render() {
			t.Fatalf("seed %d: fast-forwarded report differs from plain stepping", seed)
		}
		if len(fastCores) != fastRep.Specs || len(plainCores) != len(fastCores) {
			t.Fatalf("seed %d: captured cores for %d and %d of %d specs", seed, len(fastCores), len(plainCores), fastRep.Specs)
		}
		for name, fc := range fastCores {
			pc := plainCores[name]
			if len(fc) == 0 || len(fc) != len(pc) {
				t.Fatalf("seed %d: %s: %d cores fast-forwarded, %d plain", seed, name, len(fc), len(pc))
			}
			for i := range fc {
				if d := cputest.Diff(fc[i], pc[i]); len(d) != 0 {
					t.Fatalf("seed %d: %s: core %d differs from plain stepping:\n%s", seed, name, i, strings.Join(d[:min(len(d), 20)], "\n"))
				}
			}
		}
	}
}

// sweepWithCores sweeps the whole space like Direct does, and keeps the
// simulated cores each spec's channel ran on.
func sweepWithCores(t *testing.T, o Options) (Report, map[string][]*cpu.Core) {
	t.Helper()
	var mu sync.Mutex
	cores := map[string][]*cpu.Core{}
	run := func(ctx context.Context, cs spec.ChannelSpec, bits int) (channel.Result, error) {
		m, err := cs.ResolveModel()
		if err != nil {
			return channel.Result{}, err
		}
		ch := cs.Build(m)
		res, err := channel.TransmitCtx(runctx.New(ctx, nil), ch, m.Name, channel.Alternating(bits), cs.CalibBits)
		mu.Lock()
		cores[cs.String()] = coresOf(reflect.ValueOf(ch), map[uintptr]bool{})
		mu.Unlock()
		return res, err
	}
	rep, err := Run(context.Background(), Filter{}, o, run, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep, cores
}

var coreType = reflect.TypeOf((*cpu.Core)(nil))

// coresOf returns every *cpu.Core reachable from v through pointers,
// interfaces and struct fields, exported or not, in field order. Not
// every channel exposes its core, so the test reaches in.
func coresOf(v reflect.Value, seen map[uintptr]bool) []*cpu.Core {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			return coresOf(v.Elem(), seen)
		}
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return nil
		}
		seen[v.Pointer()] = true
		if v.Type() == coreType {
			return []*cpu.Core{(*cpu.Core)(unsafe.Pointer(v.Pointer()))}
		}
		return coresOf(v.Elem(), seen)
	case reflect.Struct:
		var cs []*cpu.Core
		for i := 0; i < v.NumField(); i++ {
			cs = append(cs, coresOf(v.Field(i), seen)...)
		}
		return cs
	}
	return nil
}
