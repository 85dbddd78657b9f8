package clonecheck

import (
	"fmt"
	"math"
	"reflect"
)

// IgnoreFields excludes the named fields of the sample's struct type
// from Diff: scratch storage whose contents are never read back, say.
func IgnoreFields(sample any, names ...string) Option {
	return func(c *config) {
		t := reflect.TypeOf(sample)
		if c.ignored[t] == nil {
			c.ignored[t] = map[string]bool{}
		}
		for _, n := range names {
			c.ignored[t][n] = true
		}
	}
}

// Diff walks the object graphs of a and b in parallel and describes
// every leaf value that differs: the oracle for two simulators that
// should have reached the same state by different routes. Floats
// compare by bit pattern, pointers by what they point to, and functions
// are skipped (their captured state is invisible to reflection). A pair
// of pointers is compared once, so shared and cyclic structures are
// fine. An empty result means a and b are equal everywhere.
func Diff(a, b any, opts ...Option) []string {
	cfg := &config{allowed: map[reflect.Type]bool{}, ignored: map[reflect.Type]map[string]bool{}}
	for _, o := range opts {
		o(cfg)
	}
	d := &differ{cfg: cfg, seen: map[[2]uintptr]bool{}}
	d.diff(reflect.ValueOf(a), reflect.ValueOf(b), "(root)")
	return d.found
}

type differ struct {
	cfg   *config
	seen  map[[2]uintptr]bool
	found []string
}

func (d *differ) report(path string, a, b any) {
	d.found = append(d.found, fmt.Sprintf("%s: %v != %v", path, a, b))
}

func (d *differ) diff(a, b reflect.Value, path string) {
	if a.IsValid() != b.IsValid() {
		d.report(path, a, b)
		return
	}
	if !a.IsValid() {
		return
	}
	if a.Type() != b.Type() {
		d.report(path, a.Type(), b.Type())
		return
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Map:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report(path, a.IsNil(), b.IsNil())
			}
			return
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if d.seen[key] {
			return
		}
		d.seen[key] = true
		if a.Kind() == reflect.Pointer {
			d.diff(a.Elem(), b.Elem(), path)
			return
		}
		if a.Len() != b.Len() {
			d.report(path+" len", a.Len(), b.Len())
			return
		}
		iter := a.MapRange()
		for iter.Next() {
			d.diff(iter.Value(), b.MapIndex(iter.Key()), fmt.Sprintf("%s[%v]", path, iter.Key()))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			d.report(path+" len", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Interface:
		d.diff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			if d.cfg.ignored[t][name] {
				continue
			}
			d.diff(a.Field(i), b.Field(i), path+"."+name)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			d.report(path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			d.report(path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			d.report(path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			d.report(path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			d.report(path, a.String(), b.String())
		}
	case reflect.Func:
		// Skipped, as in Shared.
	default:
		d.report(path, "unsupported kind", a.Kind())
	}
}
