package enclave

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"securecloud/internal/sim"
)

// refOverlay is the reference model of a snapshot span's overlay: two Go
// maps of the lines and pages the span already touched, walked line by
// line, each line's cache state read by scanning its set's ways
// (llc.probeTag). It charges into its own acct, so a test can run it
// beside a real span over the same frozen state and compare the per-cause
// event counts.
type refOverlay struct {
	m     *Memory
	st    acct
	lines map[uint64]struct{}
	pages map[uint64]struct{}
}

func newRefOverlay(m *Memory) *refOverlay {
	return &refOverlay{m: m, lines: make(map[uint64]struct{}), pages: make(map[uint64]struct{})}
}

func (r *refOverlay) access(addr uint64, size int, cpu sim.Cycles) {
	if cpu > 0 {
		r.st.cpu += cpu
		r.st.cpuN++
	}
	if size <= 0 {
		return
	}
	p := r.m.p
	first := addr >> p.lineShift
	last := (addr + uint64(size) - 1) >> p.lineShift
	inside := r.m.enc != nil
	for l := first; l <= last; l++ {
		page := l >> p.lppShift
		if _, ok := r.pages[page]; !ok {
			r.pages[page] = struct{}{}
			if inside && !p.pager.isResident(page) {
				r.st.epcF++
			} else if !inside && !r.m.touched.get(page) {
				r.st.minorF++
			}
		}
		hit := true
		if _, ok := r.lines[l]; !ok {
			r.lines[l] = struct{}{}
			hit = p.cache.probeTag(l)
		}
		switch {
		case hit:
			r.st.hits++
		case inside:
			r.st.mee++
		default:
			r.st.dram++
		}
	}
}

// setGen is the test hook that moves an empty table to generation g, so a
// test can drive the generation across its wrap without 2^32 resets.
func (s *pageLines) setGen(g uint32) {
	if s.n != 0 {
		panic("setGen on a non-empty table")
	}
	s.gen = g
}

// lineCount returns the number of lines the current generation's bitmaps
// hold.
func (s *pageLines) lineCount() int {
	n := 0
	for _, sl := range s.slots {
		if sl.gen == s.gen {
			n += bits.OnesCount64(sl.lines)
		}
	}
	return n
}

// overlayFixture is a shrunken platform with both resident and evicted
// enclave pages, cached and uncached lines, and an untrusted region that
// is only partly touched: every branch of the probe has something to find.
type overlayFixture struct {
	views []*Memory
	bases []uint64
}

const overlaySpan = 4 << 20 // bytes each view's script ranges over

func newOverlayFixture(t *testing.T, r *rand.Rand) overlayFixture {
	t.Helper()
	p, e, base := snapshotEnclave(t)
	mem := e.Memory()
	accessStride(mem, base, 4096, 256, 64)
	for i := 0; i < 2000; i++ {
		mem.AccessRange(base+uint64(r.Int63n(overlaySpan-8192)), 1+r.Intn(256), false)
	}
	ubase := p.AllocUntrusted(overlaySpan)
	um := p.UntrustedMemory()
	for i := 0; i < 300; i++ {
		um.AccessRange(ubase+uint64(r.Int63n(overlaySpan/2)), 64, false)
	}
	return overlayFixture{views: []*Memory{mem, um}, bases: []uint64{base, ubase}}
}

// overlayOp is one scripted span access.
type overlayOp struct {
	addr uint64
	size int
	cpu  sim.Cycles
}

// overlayScript draws one span's accesses: header-sized single-line
// probes, page-straddling ranges and re-touches of earlier addresses.
func overlayScript(r *rand.Rand, base uint64, n int) []overlayOp {
	ops := make([]overlayOp, n)
	for i := range ops {
		var op overlayOp
		switch k := r.Intn(10); {
		case k < 6:
			op.addr = base + uint64(r.Int63n(overlaySpan/64))*64 + uint64(r.Intn(32))
			op.size = 1 + r.Intn(32)
		case k < 8:
			page := base + uint64(r.Int63n(overlaySpan/4096-2))*4096
			op.addr = page + 4096 - uint64(1+r.Intn(512))
			op.size = 2 + r.Intn(6000)
		default:
			if i > 0 {
				op = ops[r.Intn(i)]
			} else {
				op.addr, op.size = base, 64
			}
		}
		if r.Intn(3) == 0 {
			op.cpu = sim.Cycles(1 + r.Intn(500))
		}
		ops[i] = op
	}
	return ops
}

// runOverlaySpan binds sp to m, plays ops through it and through a fresh
// reference overlay, and fails unless both accumulated the same per-cause
// counts. It then ends the span without returning it to the pool, so the
// caller keeps reusing the same tables.
func runOverlaySpan(t *testing.T, sp *Span, m *Memory, ops []overlayOp, label string) {
	t.Helper()
	ref := newRefOverlay(m)
	sp.m = m
	for _, op := range ops {
		if op.cpu > 0 {
			sp.AccessCPU(op.addr, op.size, op.cpu)
		} else {
			sp.Access(op.addr, op.size)
		}
		ref.access(op.addr, op.size, op.cpu)
	}
	if sp.st != ref.st {
		t.Fatalf("%s: overlay counts %+v, reference %+v", label, sp.st, ref.st)
	}
	if lines := sp.seen.lineCount(); lines != len(ref.lines) || sp.seen.n != len(ref.pages) {
		t.Fatalf("%s: overlay holds %d lines / %d pages, reference %d / %d",
			label, lines, sp.seen.n, len(ref.lines), len(ref.pages))
	}
	sp.endSnapshot()
}

// TestPropSnapshotOverlayMatchesReference: over seeded scripts of snapshot
// spans on both views, one reused span's generation-stamped overlay
// charges exactly the per-cause event counts of the map-based reference,
// span after span, while its table grows well past its initial size.
func TestPropSnapshotOverlayMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := sim.NewRand(seed)
		fx := newOverlayFixture(t, r)
		sp := newSnapshotSpan()
		slots0 := len(sp.seen.slots)
		for i := 0; i < 60; i++ {
			v := r.Intn(len(fx.views))
			n := 1 + r.Intn(40)
			if i%4 == 0 {
				n = 1500 + r.Intn(1500) // enough distinct pages to grow twice
			}
			runOverlaySpan(t, sp, fx.views[v], overlayScript(r, fx.bases[v], n), "span")
		}
		if len(sp.seen.slots) < 4*slots0 {
			t.Fatalf("seed %d: overlay grew to %d slots from %d; want at least two doublings",
				seed, len(sp.seen.slots), slots0)
		}
	}
}

// TestSnapshotOverlayGenerationWrap: after the generation wraps, the
// overlay still counts exactly like the reference. Script a runs once at
// generation 1, stamping its slots; a short script b runs in the last
// three generations before the wrap, leaving most of those stamps in
// place; a runs again in the first three after it. A wrap that re-entered
// generation 1 without clearing the table would resurrect a's stamps as
// hits.
func TestSnapshotOverlayGenerationWrap(t *testing.T) {
	r := sim.NewRand(7)
	fx := newOverlayFixture(t, r)
	m, base := fx.views[0], fx.bases[0]
	a, b := overlayScript(r, base, 800), overlayScript(r, base, 20)
	sp := newSnapshotSpan()
	runOverlaySpan(t, sp, m, a, "gen 1")
	sp.seen.setGen(math.MaxUint32 - 2)
	for i, ops := range [][]overlayOp{b, b, b, a, a, a} {
		runOverlaySpan(t, sp, m, ops, fmt.Sprintf("span %d across the wrap", i))
	}
	if sp.seen.gen != 4 {
		t.Fatalf("generation %d after six resets from MaxUint32-2, want 4", sp.seen.gen)
	}
}

// TestSnapshotOverlayPooledSpans: spans opened and ended through the
// public API, and so recycled through the pool, charge the ledger what the
// reference counts, span after span.
func TestSnapshotOverlayPooledSpans(t *testing.T) {
	r := sim.NewRand(11)
	fx := newOverlayFixture(t, r)
	for i := 0; i < 40; i++ {
		v := r.Intn(len(fx.views))
		m := fx.views[v]
		ops := overlayScript(r, fx.bases[v], 1+r.Intn(1200))
		ref := newRefOverlay(m)
		before := m.Cycles()
		sp := m.BeginSnapshotSpan()
		for _, op := range ops {
			sp.AccessCPU(op.addr, op.size, op.cpu)
			ref.access(op.addr, op.size, op.cpu)
		}
		sp.End()
		cost, want := m.p.cfg.Cost, ref.st
		wantCycles := sim.Cycles(want.hits)*cost.LLCHit + sim.Cycles(want.mee)*cost.MEEAccess +
			sim.Cycles(want.dram)*cost.DRAMAccess + sim.Cycles(want.epcF)*cost.EPCFault +
			sim.Cycles(want.minorF)*cost.MinorFault + want.cpu
		if got := m.Cycles() - before; got != wantCycles {
			t.Fatalf("span %d: charged %d cycles, reference %d", i, got, wantCycles)
		}
	}
}
