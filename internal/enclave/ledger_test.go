package enclave

import (
	"fmt"
	"testing"

	"securecloud/internal/sim"
)

// ledgerModel is what a test expects a view's ledger to hold for the causes
// whose cost is not a fixed per-event constant or that the test drives
// directly.
type ledgerModel struct {
	cpu         sim.Cycles
	cpuN        uint64
	transitions uint64
	aex         uint64
}

// checkLedger asserts the ledger's conservation laws on one view: the
// total is the sum of the per-cause breakdown, every fixed-cost cause costs
// its events times its unit cost, the CPU, transition and AEX entries match
// the model, and the fault counter is the sum of both fault causes.
func checkLedger(t *testing.T, where string, m *Memory, want ledgerModel) {
	t.Helper()
	cost := m.p.cfg.Cost
	units := map[string]sim.Cycles{
		CauseLLCHit:     cost.LLCHit,
		CauseDRAM:       cost.DRAMAccess,
		CauseMEE:        cost.MEEAccess,
		CauseEPCFault:   cost.EPCFault,
		CauseMinorFault: cost.MinorFault,
		CauseTransition: cost.Transition,
		CauseAEX:        cost.AEX,
	}
	bd := m.Breakdown()
	var sum sim.Cycles
	for name, c := range bd {
		sum += c
		if m.Events(name) == 0 {
			t.Fatalf("%s: breakdown lists %s with no events", where, name)
		}
	}
	if got := m.Cycles(); got != sum {
		t.Fatalf("%s: Cycles() = %d, sum of breakdown = %d (%v)", where, got, sum, bd)
	}
	for name, unit := range units {
		if got, want := bd[name], sim.Cycles(m.Events(name))*unit; got != want {
			t.Fatalf("%s: %s costs %d, %d events × %d = %d", where, name, got, m.Events(name), unit, want)
		}
	}
	if bd[CauseCPU] != want.cpu || m.Events(CauseCPU) != want.cpuN {
		t.Fatalf("%s: cpu %d cycles / %d events, want %d / %d",
			where, bd[CauseCPU], m.Events(CauseCPU), want.cpu, want.cpuN)
	}
	if got := m.Events(CauseTransition); got != want.transitions {
		t.Fatalf("%s: %d transitions, want %d", where, got, want.transitions)
	}
	if got := m.Events(CauseAEX); got != want.aex {
		t.Fatalf("%s: %d AEX events, want %d", where, got, want.aex)
	}
	if got, want := m.Faults(), m.Events(CauseEPCFault)+m.Events(CauseMinorFault); got != want {
		t.Fatalf("%s: Faults() = %d, fault events = %d", where, got, want)
	}
}

// TestPropLedgerTotalEqualsSumOfCauses drives an enclave view and an
// untrusted view on one paging platform with a seeded mix of bulk
// accesses, spans, snapshot spans, CPU charges, transitions and
// interrupts, checks the ledger's conservation laws after every step, and
// checks that ResetAccounting zeroes everything.
func TestPropLedgerTotalEqualsSumOfCauses(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p, e, base := snapshotEnclave(t)
		ubase := p.AllocUntrusted(1 << 20)
		views := []*Memory{e.Memory(), p.UntrustedMemory()}
		spans := []uint64{3 << 20, 1 << 20}
		starts := []uint64{base, ubase}
		models := make([]ledgerModel, len(views))
		for _, m := range views {
			m.ResetAccounting()
		}
		r := sim.NewRand(seed)
		depth := 0
		seen := map[string]bool{}
		for step := 0; step < 200; step++ {
			v := r.Intn(len(views))
			m, model := views[v], &models[v]
			addr := func() uint64 { return starts[v] + uint64(r.Int63n(int64(spans[v]))) }
			size := 1 + r.Intn(3*4096)
			cpu := sim.Cycles(1 + r.Intn(500))
			switch op := r.Intn(10); op {
			case 0:
				m.AccessRange(addr(), size, r.Intn(2) == 0)
			case 1:
				addrs := make([]uint64, 1+r.Intn(16))
				for i := range addrs {
					addrs[i] = addr()
				}
				accessEach(m, addrs, 1+r.Intn(256))
			case 2:
				accessStride(m, addr(), uint64(64<<r.Intn(8)), 1+r.Intn(64), 1+r.Intn(128))
			case 3, 4:
				var sp *Span
				if op == 3 {
					sp = m.BeginSpan()
				} else {
					sp = m.BeginSnapshotSpan()
				}
				for i := r.Intn(8); i >= 0; i-- {
					switch r.Intn(3) {
					case 0:
						sp.Access(addr(), size)
					case 1:
						sp.AccessCPU(addr(), 1+r.Intn(512), cpu)
						model.cpu += cpu
						model.cpuN++
					case 2:
						sp.ChargeCPU(cpu)
						model.cpu += cpu
						model.cpuN++
					}
				}
				sp.End()
			case 5:
				m.ChargeCPU(cpu)
				model.cpu += cpu
				model.cpuN++
			case 6:
				if err := e.EEnter(); err != nil {
					t.Fatal(err)
				}
				depth++
				models[0].transitions++
			case 7:
				if depth > 0 {
					if err := e.EExit(); err != nil {
						t.Fatal(err)
					}
					depth--
				}
			case 8:
				e.OCall()
				models[0].transitions++
			case 9:
				e.Interrupt()
				models[0].aex++
			}
			for i, m := range views {
				checkLedger(t, fmt.Sprintf("seed %d step %d view %d", seed, step, i), m, models[i])
				for name := range m.Breakdown() {
					seen[name] = true
				}
			}
		}
		for _, name := range causeNames {
			if !seen[name] {
				t.Fatalf("seed %d: the mix never charged %s", seed, name)
			}
		}
		for _, m := range views {
			m.ResetAccounting()
			checkLedger(t, "after reset", m, ledgerModel{})
			if m.Cycles() != 0 || len(m.Breakdown()) != 0 || m.Faults() != 0 {
				t.Fatalf("seed %d: reset left %d cycles, %v, %d faults", seed, m.Cycles(), m.Breakdown(), m.Faults())
			}
			for _, name := range causeNames {
				if n := m.Events(name); n != 0 {
					t.Fatalf("seed %d: reset left %d %s events", seed, n, name)
				}
			}
		}
	}
}
