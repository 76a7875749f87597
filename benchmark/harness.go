package main

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"
)

const (
	// windowSlices is how many slices of equal op count a timed window is
	// cut into; the reported throughput is the median slice rate.
	windowSlices = 5
	// A run builds its stack at least minSetups times and reports the
	// median as setup_s, so one slow build does not decide it. Cheap
	// set-ups (tens of milliseconds, where the first build in a process is
	// several times the rest) repeat until setupBudget is spent, up to
	// maxSetups.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
	// traceRounds is how many pairs of an untraced and a traced sub-window
	// a trace run alternates, so host drift falls on both sides alike.
	traceRounds = 4
	// minOps keeps a window open until p95 has its ten samples beyond it,
	// however slow the host.
	minOps = 20 * minTail
	// windowLimit aborts a window that cannot reach minOps in time for the
	// driver's 180 s limit per run.
	windowLimit = 120 * time.Second
	// noisySpreadPct marks a run whose slice rates lie further apart than
	// this share of their median.
	noisySpreadPct = 15
)

// shape is what the harness needs to know about a workload's loop.
type shape struct {
	// opsPerTick is how many ops one tick attempts.
	opsPerTick int
	// nSim is how many ops, from the start of the window, delimit the
	// sim-cycle delta. A multiple of opsPerTick, so the delta ends on a
	// tick boundary and is the same whatever the host speed.
	nSim int
	// payloadBytes is the workload's typical payload size; the cryptbox
	// and enclave probes run at it.
	payloadBytes int
	// warmTicks is the fixed number of ticks that end set-up: caches fill
	// and lazy initialisation finishes before anything is timed.
	warmTicks int
}

// workload is one set of inputs and the stack they run on. Every method is
// called from the single driver goroutine.
type workload interface {
	// setup builds the stack, runs attestation and key release, pre-fills
	// state and generates every input of the run from e.seed. The harness
	// then runs shape().warmTicks ticks, which count as set-up too.
	setup(e *env) error
	// tick runs one closed-loop driver iteration and reports each op it
	// attempted through e.ok or e.fail.
	tick(e *env) error
	shape() shape
	// sim returns the cycles and EPC faults charged so far by every
	// enclave the workload touches.
	sim() (cycles, faults uint64)
	// verify runs the oracles that are too slow, or too intrusive on the
	// simulated state, to run inside the window. It reports wrong ops
	// through e.fail.
	verify(e *env) error
	// layers fills lc.vals with the workload's per-layer figures: span
	// aggregates of the traced window, public counters, and probes.
	layers(e *env, lc *layerCtx) error
	close()
}

// env is what a workload sees of the run.
type env struct {
	seed  int64
	quick bool
	tr    *tracer // nil in an untraced run

	rec       *recorder
	t0        time.Time
	attempted int
	failed    int
}

// ok records one correct op that took lat and completed at now.
func (e *env) ok(lat time.Duration, now time.Time) {
	e.attempted++
	e.rec.observe(lat, now.Sub(e.t0))
}

// fail records n ops that errored, were shed or failed their check. They
// get no latency sample.
func (e *env) fail(n int) {
	e.attempted += n
	e.failed += n
}

// failDone marks n ops already counted as attempted (and sampled) as
// failed: a deferred oracle found them wrong after the window.
func (e *env) failDone(n int) { e.failed += n }

// scale returns full in a normal run and quick in a -quick run.
func (e *env) scale(full, quick int) int {
	if e.quick {
		return quick
	}
	return full
}

// setUp runs one complete set-up of w: the build, then the warm-up ticks,
// untraced and unrecorded. A warm-up op that fails is a broken stack, not
// a measurement.
func setUp(w workload, e *env) error {
	if err := w.setup(e); err != nil {
		return err
	}
	was := e.tr.enabled()
	e.tr.enable(false)
	defer e.tr.enable(was)
	warm := &env{seed: e.seed, quick: e.quick, tr: e.tr, rec: newRecorder(0), t0: time.Now()}
	for i := 0; i < w.shape().warmTicks; i++ {
		if err := w.tick(warm); err != nil {
			return err
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed", warm.failed, warm.attempted)
	}
	return nil
}

// window is what one timed window measured.
type window struct {
	rec       *recorder
	wall      time.Duration
	attempted int
	failed    int
	rates     []float64
	simCycles uint64 // over the first simOps ops
	simOps    int
	cycles    uint64 // over the whole window
	faults    uint64
	mallocs   uint64
	allocB    uint64
	pauseNS   uint64
}

func (w *window) throughput() float64 { return median(w.rates) }

// overallRate is the window's successful ops over its whole wall time.
func (w *window) overallRate() float64 { return float64(w.rec.count()) / w.wall.Seconds() }

// runWindow drives w for at least d, until minOps ops have succeeded and,
// when nSim is not 0, the sim delta over the first nSim ops is closed.
func runWindow(w workload, e *env, d time.Duration, minOps, nSim int) (*window, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	e.rec = newRecorder(4096)
	a0, f0 := e.attempted, e.failed
	c0, pf0 := w.sim()
	win := &window{rec: e.rec}
	e.t0 = time.Now()
	for {
		e.tr.nextOp()
		if err := w.tick(e); err != nil {
			return nil, err
		}
		if nSim > 0 && win.simOps == 0 && e.attempted-a0 >= nSim {
			c, _ := w.sim()
			win.simCycles, win.simOps = c-c0, e.attempted-a0
		}
		el := time.Since(e.t0)
		if el >= d && e.rec.count() >= minOps && (nSim == 0 || win.simOps > 0) {
			win.wall = el
			break
		}
		if el > windowLimit {
			return nil, fmt.Errorf("window still open after %v: %d ops succeeded, %d failed",
				el.Round(time.Second), e.rec.count(), e.failed-f0)
		}
	}
	c1, pf1 := w.sim()
	runtime.ReadMemStats(&ms1)
	win.attempted, win.failed = e.attempted-a0, e.failed-f0
	win.rates = e.rec.sliceRates(windowSlices)
	win.cycles, win.faults = c1-c0, pf1-pf0
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	win.pauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	return win, nil
}

// runResult is one run of one workload, as written to the result file.
type runResult struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"latency_samples"`
	Noisy     bool              `json:"noisy"`
	Note      string            `json:"note,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Diagnostics are not gated: the slice rates and set-up times behind
	// the medians, and the tail quantiles the sample count supports.
	Diagnostics map[string]any `json:"diagnostics,omitempty"`
}

// heapLiveMiB forces a collection and returns the heap in use: the state
// and caches set-up built, before the window allocates anything.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle finishes sweeping what the first freed
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(wd workloadDef, seed int64, seconds float64, quick bool) (*runResult, error) {
	var (
		w      workload
		e      *env
		setups []float64
	)
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		w, e = wd.new(), &env{seed: seed, quick: quick}
		t0 := time.Now()
		if err := setUp(w, e); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		dt := time.Since(t0)
		spent += dt
		setups = append(setups, dt.Seconds())
	}
	defer w.close()
	heap := heapLiveMiB()

	sh := w.shape()
	if sh.nSim%sh.opsPerTick != 0 {
		return nil, fmt.Errorf("nSim %d is not a multiple of opsPerTick %d", sh.nSim, sh.opsPerTick)
	}
	win, err := runWindow(w, e, time.Duration(seconds*float64(time.Second)), minOps, sh.nSim)
	if err != nil {
		return nil, err
	}
	if err := w.verify(e); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	p50, err := win.rec.quantile(0.50)
	if err != nil {
		return nil, err
	}
	p95, err := win.rec.quantile(0.95)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":           median(setups),
		"throughput_ops_s":  win.throughput(),
		"latency_p50_us":    usOf(p50),
		"latency_p95_us":    usOf(p95),
		"sim_cycles_per_op": float64(win.simCycles) / float64(win.simOps),
		"heap_live_mb":      heap,
	}
	res := &runResult{
		Workload: wd.name, Why: wd.why, Seed: seed, Seconds: seconds,
		Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed,
		Samples: win.rec.count(), Note: wd.note,
		Noisy:   spreadPct(win.rates) > noisySpreadPct,
		Metrics: make(map[string]metric, len(endToEnd)),
		Diagnostics: map[string]any{
			"setup_s_samples":   setups,
			"slice_rates_ops_s": win.rates,
			"slice_spread_pct":  spreadPct(win.rates),
			"window_s":          win.wall.Seconds(),
			"sim_ops":           win.simOps,
			"epc_faults":        win.faults,
		},
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p99_us", 0.99}, {"latency_p999_us", 0.999}} {
		if v, err := win.rec.quantile(q.q); err == nil {
			res.Diagnostics[q.name] = usOf(v)
		}
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// layerCtx is what a workload's layers method works with.
type layerCtx struct {
	agg  map[string]spanAgg // span aggregates of the traced window and of set-up
	win  *window            // the traced window
	vals map[string]float64
}

// perOp sets metric to the named span's total time divided by n, in µs.
func (lc *layerCtx) perOp(metric, spanName string, n int) {
	if n > 0 {
		lc.vals[metric] = lc.agg[spanName].TotalUS / float64(n)
	}
}

// selfPerOp is perOp on the span's self time.
func (lc *layerCtx) selfPerOp(metric, spanName string, n int) {
	if n > 0 {
		lc.vals[metric] = lc.agg[spanName].SelfUS / float64(n)
	}
}

// perCall sets metric to the named span's mean duration in the given unit
// (1 for µs, 1000 for ms).
func (lc *layerCtx) perCall(metric, spanName string, perUnitUS float64) {
	if a := lc.agg[spanName]; a.Count > 0 {
		lc.vals[metric] = a.TotalUS / float64(a.Count) / perUnitUS
	}
}

// add folds a sub-window into w: counts and deltas sum, latency samples
// pool, and the sub-window's overall rate becomes one more entry of rates.
func (w *window) add(sub *window) {
	w.rec.lat = append(w.rec.lat, sub.rec.lat...)
	w.wall += sub.wall
	w.attempted += sub.attempted
	w.failed += sub.failed
	w.rates = append(w.rates, sub.overallRate())
	w.cycles += sub.cycles
	w.faults += sub.faults
	w.mallocs += sub.mallocs
	w.allocB += sub.allocB
	w.pauseNS += sub.pauseNS
}

// runTraced measures the per-layer metrics of one workload: one set-up,
// then traceRounds alternating pairs of untraced and traced sub-windows
// that together last the given seconds, then the probes.
func runTraced(wd workloadDef, seed int64, seconds float64, quick bool, resultsDir string) (*runResult, error) {
	tr := newTracer()
	tr.enable(true)
	w, e := wd.new(), &env{seed: seed, quick: quick, tr: tr}
	defer w.close()
	if err := setUp(w, e); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sub := time.Duration(seconds / (2 * traceRounds) * float64(time.Second))
	plain, traced := &window{rec: newRecorder(0)}, &window{rec: newRecorder(0)}
	tracedStart := time.Now()
	for round := 0; round < traceRounds; round++ {
		// Alternate which side goes first, so that neither always meets
		// the same phase of a periodic cost (durable_write's snapshots).
		sides := []*window{plain, traced}
		if round%2 == 1 {
			sides = []*window{traced, plain}
		}
		for _, side := range sides {
			tr.enable(side == traced)
			win, err := runWindow(w, e, sub, 1, 0)
			if err != nil {
				return nil, err
			}
			side.add(win)
		}
	}
	tr.enable(false)
	// The share of the traced sub-windows spent outside every span:
	// picking the pre-generated input, the in-loop oracles, bookkeeping.
	generatorShare := 1 - float64(tr.rootCoveredSince(tracedStart))/float64(traced.wall.Nanoseconds())
	if err := w.verify(e); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	// Aggregated before the probes run, so their spans (which the trace
	// file keeps) cannot leak into the window's per-op figures.
	lc := &layerCtx{agg: tr.aggregate(), win: traced, vals: make(map[string]float64)}
	tr.enable(true)
	if err := w.layers(e, lc); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	tr.enable(false)

	v := lc.vals
	if plain.attempted > 0 {
		n := float64(plain.attempted)
		v["host.allocs_per_op"] = float64(plain.mallocs) / n
		v["host.alloc_bytes_per_op"] = float64(plain.allocB) / n
		v["enclave.epc_faults_per_op"] = float64(plain.faults) / n
	}
	v["host.gc_pause_ms"] = float64(plain.pauseNS) / 1e6
	v["host.slice_spread_pct"] = spreadPct(plain.rates)
	if p99, err := plain.rec.quantile(0.99); err == nil {
		v["host.latency_p99_us"] = usOf(p99)
	}
	if plain.cycles > 0 {
		v["enclave.host_ns_per_sim_kcycle"] = float64(plain.wall.Nanoseconds()) / (float64(plain.cycles) / 1e3)
	}
	v["host.generator_share"] = generatorShare
	// Whole-side rates, not medians of sub-windows: a sub-window holds two
	// or three of durable_write's 130 ms snapshots, and a median of four
	// such rates aliases with them.
	if tu := plain.overallRate(); tu > 0 {
		v["trace.overhead_pct"] = (tu - traced.overallRate()) / tu * 100
	}
	probeCommon(w.shape().payloadBytes, v)

	metrics, err := layerMetrics(v)
	if err != nil {
		return nil, err
	}
	if err := tr.write(resultsDir, wd.name, seed); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return &runResult{
		Workload: wd.name, Why: wd.why, Seed: seed, Seconds: seconds, Traced: true,
		Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed,
		Samples: traced.rec.count(), Note: wd.note,
		Noisy:   spreadPct(plain.rates) > noisySpreadPct,
		Metrics: metrics,
		Diagnostics: map[string]any{
			"span_names":               slices.Sorted(maps.Keys(lc.agg)),
			"untraced_throughput_op_s": plain.overallRate(),
			"traced_throughput_op_s":   traced.overallRate(),
		},
	}, nil
}
