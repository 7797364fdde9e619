package atmbench

import (
	"reflect"
	"testing"
)

// TestSelfTimes: covered time is the union of the children, clipped to
// the parent — overlapping and overhanging children subtract once.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		0: {Name: "op.x", Start: 0, End: 100, Parent: -1},
		1: {Name: "a.one", Start: 10, End: 40, Parent: 0},
		2: {Name: "a.two", Start: 30, End: 60, Parent: 0},   // overlaps a.one
		3: {Name: "b.late", Start: 90, End: 130, Parent: 0}, // overhangs the parent
		4: {Name: "c.leaf", Start: 12, End: 20, Parent: 1},
		5: {Name: "c.inside", Start: 35, End: 38, Parent: 0}, // inside a.one and a.two
	}
	want := []int64{100 - (50 + 10), 30 - 8, 30, 40, 8, 3}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := NewRecorder()
	r.NextOp("w")
	root := r.Begin("op.w")
	a := r.Begin("core.load")
	b := r.BeginProbe("trace.decode")
	r.End(b)
	r.End(a)
	c := r.Begin("render.encode_png")
	r.Begin("leaked.child") // never ended: closing its parent closes it
	r.End(c)
	r.End(root)
	r.NextOp("v")
	r.End(r.Begin("ui.get"))

	s := r.Spans()
	parents := []int{-1, 0, 1, 0, 3, -1}
	for i, p := range parents {
		if s[i].Parent != p {
			t.Errorf("span %d (%s): parent %d, want %d", i, s[i].Name, s[i].Parent, p)
		}
		if s[i].End < s[i].Start {
			t.Errorf("span %d (%s) never ended", i, s[i].Name)
		}
	}
	if !s[2].Probe || s[1].Probe {
		t.Error("probe flag not on the probe span alone")
	}
	if s[4].Op != 1 || s[5].Op != 2 || s[5].Work != "v" {
		t.Errorf("operation ids %d, %d and workload %q", s[4].Op, s[5].Op, s[5].Work)
	}
	if got := LayerSelfMs(s)["w"]; len(got) != 3 || got["trace"] != 0 {
		t.Errorf("path layers of w = %v, want core, render and leaked without the probe", got)
	}
	if LayerOf("render.encode_png") != "render" || LayerOf("plain") != "plain" {
		t.Error("LayerOf")
	}
}

// TestRecorderNil: the untraced run drives the same code with no
// recorder.
func TestRecorderNil(t *testing.T) {
	var r *Recorder
	r.NextOp("w")
	r.End(r.Begin("a.b"))
	r.End(r.BeginProbe("a.c"))
	if r.On() || r.Spans() != nil {
		t.Error("nil recorder recorded")
	}
}
