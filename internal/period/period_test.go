package period

import "testing"

func TestCountersExtrapolateEveryField(t *testing.T) {
	type stats struct {
		A uint64
		B [2]uint64
		F float64
		N struct{ C uint64 }
	}
	prev := stats{A: 1, B: [2]uint64{2, 3}, F: 0.5, N: struct{ C uint64 }{4}}
	cur := stats{A: 3, B: [2]uint64{2, 7}, F: 1.25, N: struct{ C uint64 }{9}}
	Counters(&cur, &prev, 3)
	want := stats{A: 9, B: [2]uint64{2, 19}, F: 3.5, N: struct{ C uint64 }{24}}
	if cur != want {
		t.Fatalf("Counters = %+v, want %+v", cur, want)
	}
}

func TestCountersRejectsOtherKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("an int counter field did not panic")
		}
	}()
	type bad struct{ N int }
	Counters(&bad{2}, &bad{1}, 1)
}

func TestDyadic(t *testing.T) {
	for x, want := range map[float64]bool{
		0: true, 2: true, 0.25: true, 1.5: true, -3.125: true, 1 << 35: true,
		2.56: false, 0.1: false, 1 << 36: false, 1.0 / (1 << 17): false,
	} {
		if Dyadic(x) != want {
			t.Errorf("Dyadic(%v) = %v, want %v", x, !want, want)
		}
	}
}

// TestStamps covers the shift rule: stamps may stay or advance by the
// tick delta, and an advanced valid stamp must have been newer than
// every kept valid one, or the next period's LRU comparisons change.
func TestStamps(t *testing.T) {
	type entry struct {
		cur, prev uint64
		valid     bool
	}
	for _, tc := range []struct {
		name    string
		d       uint64
		entries []entry
		want    bool
	}{
		{"unchanged", 10, []entry{{5, 5, true}, {7, 7, true}}, true},
		{"newest moved", 10, []entry{{5, 5, true}, {17, 7, true}}, true},
		{"all moved", 10, []entry{{15, 5, true}, {17, 7, true}}, true},
		{"older moved past kept", 10, []entry{{15, 5, true}, {7, 7, true}}, false},
		{"invalid entries do not order", 10, []entry{{15, 5, true}, {7, 7, false}}, true},
		{"wrong delta", 10, []entry{{5, 5, true}, {16, 7, true}}, false},
		{"no ticks", 0, []entry{{5, 5, true}, {7, 7, true}}, true},
	} {
		got := Stamps(len(tc.entries), tc.d, func(i int) (uint64, uint64, bool) {
			e := tc.entries[i]
			return e.cur, e.prev, e.valid
		})
		if got != tc.want {
			t.Errorf("%s: Stamps = %v, want %v", tc.name, got, tc.want)
		}
	}
}
