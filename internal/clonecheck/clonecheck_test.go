package clonecheck

import (
	"strings"
	"testing"
)

type inner struct {
	data []int
	m    map[string]int
}

type outer struct {
	p    *inner
	s    []byte
	arr  [2]*int
	next *outer
	fn   func()
}

func TestSharedDetectsAliasing(t *testing.T) {
	n := 7
	a := &outer{
		p:   &inner{data: []int{1, 2}, m: map[string]int{"k": 1}},
		s:   []byte("abc"),
		arr: [2]*int{&n, nil},
	}
	a.next = a // cycle

	t.Run("identical object", func(t *testing.T) {
		got := Shared(a, a)
		if len(got) == 0 {
			t.Fatal("aliased object graph reported clean")
		}
	})

	t.Run("deep clone is clean", func(t *testing.T) {
		n2 := n
		b := &outer{
			p:   &inner{data: []int{1, 2}, m: map[string]int{"k": 1}},
			s:   []byte("abc"),
			arr: [2]*int{&n2, nil},
		}
		b.next = b
		if got := Shared(a, b); len(got) != 0 {
			t.Fatalf("clean clone flagged: %v", got)
		}
	})

	t.Run("one stale field", func(t *testing.T) {
		b := &outer{
			p:   a.p, // forgot to clone
			s:   []byte("abc"),
			arr: [2]*int{new(int), nil},
		}
		b.next = b
		got := Shared(a, b)
		if len(got) != 1 || !strings.Contains(got[0], "p:") {
			t.Fatalf("want exactly the stale p field, got %v", got)
		}
	})

	t.Run("shared slice backing", func(t *testing.T) {
		b := &outer{
			p:   &inner{data: a.p.data, m: map[string]int{"k": 1}},
			s:   []byte("abc"),
			arr: [2]*int{new(int), nil},
		}
		b.next = b
		got := Shared(a, b)
		if len(got) != 1 || !strings.Contains(got[0], "p.data") {
			t.Fatalf("want the shared data backing array, got %v", got)
		}
	})

	t.Run("shared map", func(t *testing.T) {
		b := &outer{
			p:   &inner{data: []int{1, 2}, m: a.p.m},
			s:   []byte("abc"),
			arr: [2]*int{new(int), nil},
		}
		b.next = b
		got := Shared(a, b)
		if len(got) != 1 || !strings.Contains(got[0], "p.m") {
			t.Fatalf("want the shared map, got %v", got)
		}
	})

	t.Run("allowed type suppresses", func(t *testing.T) {
		b := &outer{
			p:   &inner{data: a.p.data, m: map[string]int{"k": 1}},
			s:   []byte("abc"),
			arr: [2]*int{new(int), nil},
		}
		b.next = b
		if got := Shared(a, b, AllowType(0)); len(got) != 0 {
			t.Fatalf("allow-listed int slice still flagged: %v", got)
		}
	})

	t.Run("shared closures are not flagged", func(t *testing.T) {
		fn := func() {}
		x := &outer{fn: fn, arr: [2]*int{nil, nil}}
		y := &outer{fn: fn, arr: [2]*int{nil, nil}}
		if got := Shared(x, y); len(got) != 0 {
			t.Fatalf("shared func flagged: %v", got)
		}
	})
}

func TestSharedHandlesUnexportedFields(t *testing.T) {
	// All of outer/inner's fields are unexported; the tests above already
	// prove reflection reads them. This pins that nested unexported maps
	// inside interfaces work too.
	type boxed struct{ v any }
	m := map[string]int{"k": 1}
	a := boxed{v: m}
	b := boxed{v: m}
	got := Shared(a, b)
	if len(got) != 1 || !strings.Contains(got[0], "v:") {
		t.Fatalf("shared map inside interface not flagged: %v", got)
	}
	c := boxed{v: map[string]int{"k": 1}}
	if got := Shared(a, c); len(got) != 0 {
		t.Fatalf("distinct maps flagged: %v", got)
	}
}

func TestDiff(t *testing.T) {
	type leaf struct {
		F       float64
		scratch []int
	}
	type root struct {
		Name string
		L    *leaf
		S    []uint8
		I    any
		Fn   func()
	}
	mk := func() *root {
		return &root{Name: "a", L: &leaf{F: 1.5, scratch: []int{1}}, S: []uint8{1, 2}, I: &leaf{F: 2}, Fn: func() {}}
	}
	if d := Diff(mk(), mk()); len(d) != 0 {
		t.Fatalf("equal graphs differ: %v", d)
	}
	a, b := mk(), mk()
	b.L.F = 1.75
	b.S[1] = 3
	b.I.(*leaf).F = -2
	b.L.scratch[0] = 9
	d := Diff(a, b)
	if len(d) != 4 {
		t.Fatalf("want 4 differences, got %v", d)
	}
	if d := Diff(a, b, IgnoreFields(leaf{}, "F", "scratch"), IgnoreFields(root{}, "S")); len(d) != 0 {
		t.Fatalf("ignored fields still differ: %v", d)
	}
}
