// Package period holds the arithmetic behind the core's exact
// fast-forward. The run loops find a stretch of simulation that repeats:
// after one period every field of the machine is either unchanged or has
// moved in a way that cannot alter the next period's decisions — event
// counters grew, LRU recency stamps shifted with their structure's tick.
// Such a stretch can be skipped by extrapolating those fields instead of
// stepping it. The helpers here extrapolate counters and check that a
// set's recency stamps shifted without reordering; the structures that
// own the state call them.
package period

import (
	"fmt"
	"math"
	"reflect"
)

// Counters advances every field of the counter struct *cur by m more
// periods of its change from *prev: cur += m*(cur-prev). Fields must be
// uint64, float64, or arrays of those; any other field kind panics, so
// a counter struct that grows an unexpected field fails loudly instead
// of being extrapolated wrongly. A float64 field is exact only under
// Dyadic's conditions, which callers check before extrapolating one
// that moved.
func Counters[T any](cur, prev *T, m uint64) {
	counters(reflect.ValueOf(cur).Elem(), reflect.ValueOf(prev).Elem(), m)
}

func counters(cur, prev reflect.Value, m uint64) {
	switch cur.Kind() {
	case reflect.Uint64:
		c := cur.Uint()
		cur.SetUint(c + m*(c-prev.Uint()))
	case reflect.Float64:
		c := cur.Float()
		cur.SetFloat(c + float64(m)*(c-prev.Float()))
	case reflect.Struct:
		for i := 0; i < cur.NumField(); i++ {
			counters(cur.Field(i), prev.Field(i), m)
		}
	case reflect.Array:
		for i := 0; i < cur.Len(); i++ {
			counters(cur.Index(i), prev.Index(i), m)
		}
	default:
		panic(fmt.Sprintf("period: counter field of kind %s", cur.Kind()))
	}
}

// dyadicBits is the binary precision Dyadic requires: values that are
// whole multiples of 2^-16 and stay below 2^36 sum exactly in a float64
// (16+36 bits fit its 53-bit mantissa with room for one carry).
const dyadicBits = 16

// Dyadic reports whether x is a whole multiple of 2^-16 below 2^36 in
// magnitude. A float counter whose every possible increment, current
// value and extrapolated value are all dyadic accumulates exactly, so
// cur + m*(cur-prev) equals the value repeated addition reaches.
func Dyadic(x float64) bool {
	s := x * (1 << dyadicBits)
	return s == math.Trunc(s) && math.Abs(x) < 1<<36
}

// Stamps reports whether one set's recency stamps moved as one period of
// steady-state accesses moves them. n is the set's size; at(i) returns
// entry i's current and previous stamp and whether it is valid; d is the
// owning structure's tick delta over the period. Every stamp must have
// kept its value or advanced by exactly d, and every advanced valid
// stamp must already have been newer than every kept valid one. Then the
// comparisons LRU makes among valid entries — the only use of a stamp —
// come out the same in the next period, and the next period advances the
// same entries by d again.
func Stamps(n int, d uint64, at func(i int) (cur, prev uint64, valid bool)) bool {
	var oldestMoved, newestKept uint64 = math.MaxUint64, 0
	kept := false
	for i := 0; i < n; i++ {
		cur, prev, valid := at(i)
		switch cur - prev {
		case 0:
			if valid {
				kept = true
				newestKept = max(newestKept, prev)
			}
		case d:
			if valid {
				oldestMoved = min(oldestMoved, prev)
			}
		default:
			return false
		}
	}
	return !kept || oldestMoved == math.MaxUint64 || oldestMoved > newestKept
}
