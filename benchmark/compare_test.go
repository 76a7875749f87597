package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return metricDef{}
	}
	thr, p50, sim, setup := def("throughput_ops_s"), def("latency_p50_us"), def("sim_cycles_per_op"), def("setup_s")
	for _, tc := range []struct {
		d               metricDef
		a, b            float64
		sameSeed, noisy bool
		want            string
	}{
		{thr, 1000, 1000 * (1 - thr.Bound/2), true, false, "same"},
		{thr, 1000, 1000 * (1 - 2*thr.Bound), true, false, "worse"},
		{thr, 1000, 1000 * (1 + 2*thr.Bound), true, false, "better"},
		{thr, 1000, 1000 * (1 - 2*thr.Bound), true, true, "noisy"},
		{p50, 100, 100 * (1 + 2*p50.Bound), true, false, "worse"},
		{p50, 100, 100 * (1 - 2*p50.Bound), true, false, "better"},
		{p50, 100, 100 * (1 + p50.Bound/2), true, true, "same"},
		// Simulated cycles of one seed repeat exactly, or something changed.
		{sim, 1000, 1000, true, false, "same"},
		{sim, 1000, 1001, true, false, "worse"},
		{sim, 1000, 999, true, true, "better"},
		// Across seeds they are only held to the relative bound.
		{sim, 1000, 1001, false, false, "same"},
		{sim, 1000, 1000 * (1 + 2*sim.Bound), false, false, "worse"},
		// A 20 ms set-up may move by the 50 ms floor.
		{setup, 0.020, 0.060, true, false, "same"},
		{setup, 0.020, 0.080, true, false, "worse"},
		{setup, 4, 4 * (1 + 2*setup.Bound), true, false, "worse"},
	} {
		if got := verdict(tc.d, tc.a, tc.b, tc.sameSeed, tc.noisy); got != tc.want {
			t.Errorf("%s a=%v b=%v sameSeed=%v noisy=%v: %s, want %s",
				tc.d.Name, tc.a, tc.b, tc.sameSeed, tc.noisy, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	run := func(thr float64, failed int) *resultFile {
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.Name] = metric{Value: 100, Unit: d.Unit}
		}
		m["throughput_ops_s"] = metric{Value: thr, Unit: "ops/s"}
		return &resultFile{Runs: []*runResult{
			{Workload: "billing_job", Seed: 1, Attempted: 300, Failed: failed, Correct: failed == 0, Metrics: m},
			{Workload: "billing_job", Seed: 1, Traced: true, Metrics: map[string]metric{}},
		}}
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeResultFile(p, f); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow, broken := write("a.json", run(100, 0)), write("b.json", run(101, 0)), write("c.json", run(50, 0)), write("d.json", run(100, 3))

	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Fatalf("agreeing files: %v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), " same"); got != len(endToEnd) {
		t.Errorf("%d rows marked same, want %d:\n%s", got, len(endToEnd), out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, slow); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("halved throughput passed: err=%v\n%s", err, out.String())
	}
	if err := compareFiles(&out, base, broken); err == nil {
		t.Error("a file with failed ops passed")
	}
	if err := compareFiles(&out, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file passed")
	}
}
