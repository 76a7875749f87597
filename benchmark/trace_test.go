package main

import (
	"math"
	"testing"
	"time"
)

func TestTracerAggregatesSelfTime(t *testing.T) {
	tr := newTracer()
	tr.enable(true)
	// op: a 100 µs root with two overlapping children covering 10–50 and
	// 30–70 (their union is 60 µs) and a grandchild under the first.
	tr.spans = []span{
		{Name: "root", StartNS: 0, EndNS: 100_000, Parent: -1},
		{Name: "child", StartNS: 10_000, EndNS: 50_000, Parent: 0},
		{Name: "child", StartNS: 30_000, EndNS: 70_000, Parent: 0},
		{Name: "leaf", StartNS: 20_000, EndNS: 25_000, Parent: 1},
	}
	agg := tr.aggregate()
	for _, tc := range []struct {
		name        string
		count       int
		total, self float64
	}{
		{"root", 1, 100, 40},
		{"child", 2, 80, 75},
		{"leaf", 1, 5, 5},
	} {
		a := agg[tc.name]
		if a.Count != tc.count || math.Abs(a.TotalUS-tc.total) > 1e-9 || math.Abs(a.SelfUS-tc.self) > 1e-9 {
			t.Errorf("%s = %+v, want count %d total %v self %v", tc.name, a, tc.count, tc.total, tc.self)
		}
	}
	if got := tr.rootCoveredSince(tr.epoch); got != 100_000 {
		t.Errorf("rootCoveredSince = %d", got)
	}
}

func TestTracerNestsAndSwitchesOff(t *testing.T) {
	var off *tracer
	off.span("x")() // a nil tracer records nothing and does not panic
	off.leaf("x", time.Now())
	off.nextOp()

	tr := newTracer()
	tr.span("ignored")() // not enabled yet
	tr.enable(true)
	tr.nextOp()
	endOuter := tr.span("outer")
	endInner := tr.span("inner")
	tr.leaf("worker", time.Now())
	endInner()
	endOuter()
	tr.enable(false)
	tr.span("ignored")()
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans recorded, want 3", len(tr.spans))
	}
	outer, inner, worker := tr.spans[0], tr.spans[1], tr.spans[2]
	if outer.Parent != -1 || inner.Parent != 0 || worker.Parent != 1 {
		t.Errorf("parents = %d, %d, %d", outer.Parent, inner.Parent, worker.Parent)
	}
	if outer.Op != 1 || inner.Op != 1 || worker.Op != 1 {
		t.Errorf("op ids = %d, %d, %d", outer.Op, inner.Op, worker.Op)
	}
	if outer.EndNS < inner.EndNS || inner.StartNS < outer.StartNS {
		t.Errorf("inner %+v is not inside outer %+v", inner, outer)
	}
}
