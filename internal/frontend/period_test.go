package frontend

import (
	"reflect"
	"slices"
	"testing"
)

// TestRepeatsKnowsEveryField pins the field lists of the structures
// whose period checks compare field by field. A new field must be
// classified in the structure's repeats and extrapolate methods —
// compared exactly, or extrapolated — before it is added here.
func TestRepeatsKnowsEveryField(t *testing.T) {
	for _, tc := range []struct {
		v      any
		fields []string
	}{
		{Frontend{}, []string{"P", "DSB", "L1I", "BPU", "lsd", "align", "sw", "thr", "IDQ", "dsbRes", "Ctr"}},
		{DSB{}, []string{"p", "sets", "tick", "partitioned", "stats", "evictScratch", "survScratch"}},
		{LSD{}, []string{"p", "enabled", "align", "head", "tracking", "uops", "windows", "crossings", "lastSig",
			"stable", "locked", "lockedSig", "lockedWindows", "locks", "flushes"}},
		{switchBuffer{}, []string{"addrs", "counts", "learned", "stats"}},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !slices.Equal(got, tc.fields) {
			t.Errorf("%s fields = %v, the period check knows %v", typ.Name(), got, tc.fields)
		}
	}
}
