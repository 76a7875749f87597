// Benchmarks regenerating every quantitative statement of the SecureCloud
// paper (DATE '17). Each benchmark reports the simulated-cycle metrics the
// corresponding figure/claim is about. Wall-clock ns/op measures the
// simulator itself — with the batched accounting fast path (see the "cost
// model & performance" section in doc.go) it is tracked per PR by
// cmd/bench (the cachemiss suite) as the simulator-speed trajectory.
//
// Full-fidelity sweeps (all nine x-axis points of Figure 3, full ops) run
// via the cmd/ tools; the benchmarks use reduced but shape-preserving
// configurations so `go test -bench=.` finishes in minutes.
package securecloud_test

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"testing"

	"securecloud/internal/attest"
	"securecloud/internal/container"
	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/fsshield"
	"securecloud/internal/genpack"
	"securecloud/internal/image"
	"securecloud/internal/mapreduce"
	"securecloud/internal/registry"
	"securecloud/internal/scbr"
	"securecloud/internal/sconert"
	"securecloud/internal/shield"
)

// BenchmarkFigure3Registration regenerates Figure 3 (both axes) at the
// paper's nine occupancy points: the in/out-of-enclave ratio of SCBR
// registration cost and page faults as the subscription store grows past
// the EPC. Reported metrics per occupancy: time-ratio (left axis) and
// fault-ratio (right axis, paper plots ×10³). One point is selected by
// name, e.g. -bench 'Figure3Registration/occupancy=120MB'.
func BenchmarkFigure3Registration(b *testing.B) {
	for _, mb := range scbr.DefaultFigure3Config().OccupanciesMB {
		b.Run(fmt.Sprintf("occupancy=%.0fMB", mb), func(b *testing.B) {
			cfg := scbr.DefaultFigure3Config()
			cfg.OccupanciesMB = []float64{mb}
			cfg.MeasureOps = 400
			for i := 0; i < b.N; i++ {
				points, err := scbr.RunFigure3(cfg)
				if err != nil {
					b.Fatal(err)
				}
				p := points[0]
				b.ReportMetric(p.TimeRatio, "time-ratio")
				b.ReportMetric(p.FaultRatio, "fault-ratio")
				b.ReportMetric(p.InsideCyclesPerOp, "in-cycles/op")
				b.ReportMetric(p.OutsideCyclesPerOp, "out-cycles/op")
			}
		})
	}
}

// buildIndexOnEnclave populates an SCBR index of the target size on a
// fresh enclave and returns it with its workload generator.
func buildIndexOnEnclave(b *testing.B, targetMB int) (*scbr.Index, *scbr.Workload, *enclave.Enclave) {
	b.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	var signer cryptbox.Digest
	enc, err := p.ECreate(uint64(targetMB+32)<<20, signer)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enc.EAdd([]byte("scbr")); err != nil {
		b.Fatal(err)
	}
	if err := enc.EInit(); err != nil {
		b.Fatal(err)
	}
	arena, err := enc.HeapArena()
	if err != nil {
		b.Fatal(err)
	}
	ix := scbr.NewIndex(scbr.IndexConfig{
		Mem: enc.Memory(), Arena: arena, PayloadBytes: 1200, CheckCost: 450,
	})
	w := scbr.NewWorkload(scbr.DefaultWorkload(42))
	for ix.MemoryBytes() < int64(targetMB)<<20 {
		ix.Insert(w.NextSubscription())
	}
	return ix, w, enc
}

// BenchmarkCacheMissVsSwap reproduces the §V-B observation that cache
// misses impose limited overhead while EPC swapping is catastrophic:
// matching cost per publication with the store resident (40 MB, cache-miss
// bound) versus beyond the EPC (200 MB, swap bound).
func BenchmarkCacheMissVsSwap(b *testing.B) {
	for _, mb := range []int{40, 200} {
		b.Run(fmt.Sprintf("store=%dMB", mb), func(b *testing.B) {
			ix, w, enc := buildIndexOnEnclave(b, mb)
			events := make([]scbr.Event, 256)
			for i := range events {
				events[i] = w.NextEvent()
			}
			enc.Memory().ResetAccounting()
			start := enc.Memory().Cycles()
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Match(events[i%len(events)])
				n++
			}
			b.StopTimer()
			cycles := float64(enc.Memory().Cycles()-start) / float64(n)
			b.ReportMetric(cycles, "sim-cycles/match")
			b.ReportMetric(float64(enc.Memory().Faults())/float64(n), "faults/match")
		})
	}
}

// BenchmarkSCBRMatchContainmentVsNaive is the containment-index ablation:
// "a reduced number of comparisons is required whenever a message must be
// matched" (§V-B).
func BenchmarkSCBRMatchContainmentVsNaive(b *testing.B) {
	ix := scbr.NewIndex(scbr.IndexConfig{})
	w := scbr.NewWorkload(scbr.DefaultWorkload(7))
	for i := 0; i < 30000; i++ {
		ix.Insert(w.NextSubscription())
	}
	events := make([]scbr.Event, 128)
	for i := range events {
		events[i] = w.NextEvent()
	}
	b.Run("containment", func(b *testing.B) {
		start := ix.Checks()
		n := 0
		for i := 0; i < b.N; i++ {
			ix.Match(events[i%len(events)])
			n++
		}
		b.ReportMetric(float64(ix.Checks()-start)/float64(n), "comparisons/match")
	})
	b.Run("naive", func(b *testing.B) {
		start := ix.Checks()
		n := 0
		for i := 0; i < b.N; i++ {
			ix.MatchNaive(events[i%len(events)])
			n++
		}
		b.ReportMetric(float64(ix.Checks()-start)/float64(n), "comparisons/match")
	})
}

// BenchmarkSyscallSyncVsAsync reproduces the SCONE design point (§IV):
// the asynchronous shielded syscall interface avoids the enclave world
// switch that the synchronous path pays on every call.
func BenchmarkSyscallSyncVsAsync(b *testing.B) {
	for _, mode := range []shield.CallMode{shield.ModeSync, shield.ModeAsync} {
		b.Run(mode.String(), func(b *testing.B) {
			p := enclave.NewPlatform(enclave.Config{})
			var signer cryptbox.Digest
			enc, err := p.ECreate(1<<20, signer)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := enc.EAdd([]byte("svc")); err != nil {
				b.Fatal(err)
			}
			if err := enc.EInit(); err != nil {
				b.Fatal(err)
			}
			s := shield.New(enc, shield.NewHost(), mode)
			fd, err := s.Open("/bench", nil)
			if err != nil {
				b.Fatal(err)
			}
			payload := []byte("8-byte..")
			enc.Memory().ResetAccounting()
			start := enc.Memory().Cycles()
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Write(fd, payload); err != nil {
					b.Fatal(err)
				}
				n++
			}
			b.StopTimer()
			b.ReportMetric(float64(enc.Memory().Cycles()-start)/float64(n), "sim-cycles/syscall")
		})
	}
}

// BenchmarkSchedulerAmortisation is the SCONE user-level-threading
// ablation: M tasks on N TCS pay N world switches instead of M.
func BenchmarkSchedulerAmortisation(b *testing.B) {
	run := func(b *testing.B, perTask bool) {
		p := enclave.NewPlatform(enclave.Config{})
		var signer cryptbox.Digest
		enc, _ := p.ECreate(1<<20, signer)
		_, _ = enc.EAdd([]byte("svc"))
		_ = enc.EInit()
		const tasks = 256
		start := enc.Memory().Cycles()
		n := 0
		for i := 0; i < b.N; i++ {
			if perTask {
				for t := 0; t < tasks; t++ {
					_ = enc.EEnter()
					_ = enc.EExit()
				}
			} else {
				sched := sconert.NewScheduler(enc, 4)
				for t := 0; t < tasks; t++ {
					sched.Go(func() {})
				}
				if err := sched.Run(); err != nil {
					b.Fatal(err)
				}
			}
			n += tasks
		}
		b.ReportMetric(float64(enc.Memory().Cycles()-start)/float64(n), "sim-cycles/task")
	}
	b.Run("enter-per-task", func(b *testing.B) { run(b, true) })
	b.Run("user-level-mxn", func(b *testing.B) { run(b, false) })
}

// BenchmarkGenPackEnergy regenerates the §VI claim: up to 23% energy
// savings for typical data-centre workloads versus a conventional spread
// deployment.
func BenchmarkGenPackEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := genpack.EnergyExperiment(genpack.ClusterConfig{Servers: 100}, genpack.DefaultTrace(42))
		var gp, sp genpack.Result
		for _, r := range results {
			switch r.Policy {
			case "genpack":
				gp = r
			case "spread":
				sp = r
			}
		}
		b.ReportMetric(100*genpack.Savings(gp, sp), "savings-%")
		b.ReportMetric(gp.EnergyWh, "genpack-Wh")
		b.ReportMetric(sp.EnergyWh, "spread-Wh")
	}
}

// BenchmarkGenPackMonitorAblation isolates GenPack's runtime-monitoring
// design choice: the same generational scheduler with and without the
// nursery profiling that tightens reservations to observed usage.
func BenchmarkGenPackMonitorAblation(b *testing.B) {
	run := func(b *testing.B, monitored bool) {
		for i := 0; i < b.N; i++ {
			cfg := genpack.DefaultTrace(42)
			sched := genpack.NewGenPack()
			if !monitored {
				sched.Monitor = nil
			}
			cl := genpack.NewCluster(genpack.ClusterConfig{Servers: 100})
			res := genpack.Simulate(cl, sched, genpack.GenerateTrace(cfg), cfg.Ticks)
			b.ReportMetric(res.EnergyWh, "Wh")
			b.ReportMetric(res.MeanServers, "mean-servers-on")
			b.ReportMetric(float64(res.Violations), "violations")
		}
	}
	b.Run("monitored", func(b *testing.B) { run(b, true) })
	b.Run("declared-demand", func(b *testing.B) { run(b, false) })
}

// deploySecure builds, secures, registers and pushes a one-layer image
// name:1.0 holding code plus files, and returns an SGX node pulling from
// that registry together with the owner's CAS.
func deploySecure(b *testing.B, name string, code []byte, files map[string][]byte, protect map[string]fsshield.Mode) (*container.Engine, *sconert.CAS) {
	b.Helper()
	svc := attest.NewService()
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	cas := sconert.NewCAS(svc)
	owner := container.NewSCONEClient(priv, cas)
	layer := map[string][]byte{container.EntrypointPath: code}
	for p, f := range files {
		layer[p] = f
	}
	plain, err := image.NewBuilder(name, "1.0").AddLayer(layer).SetEntrypoint(container.EntrypointPath).Build(priv)
	if err != nil {
		b.Fatal(err)
	}
	secured, secrets, err := owner.BuildSecure(plain, protect)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := owner.Deploy(secured, secrets, nil, nil); err != nil {
		b.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Push(secured); err != nil {
		b.Fatal(err)
	}
	node, err := container.LaunchNode(svc, "node-00", reg, enclave.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return node, cas
}

// BenchmarkSecureContainerBoot measures the Figure 2 startup path: pull,
// verify, build enclave, attest, SCF injection.
func BenchmarkSecureContainerBoot(b *testing.B) {
	node, cas := deploySecure(b, "bench/boot", []byte("BENCH-BINARY"),
		map[string][]byte{"/etc/cfg": []byte("x=1")},
		map[string]fsshield.Mode{"/etc/cfg": fsshield.ModeEncrypted})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := node.Run("bench/boot", "1.0", cas)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Stop()
		b.StartTimer()
	}
}

// BenchmarkSecureMapReduceOverhead compares the secure engine (enclave
// workers + sealed shuffle) against the plain engine on the smart-grid
// aggregation workload (§III-B(3)).
func BenchmarkSecureMapReduceOverhead(b *testing.B) {
	input := make([]mapreduce.KV, 2000)
	for i := range input {
		input[i] = mapreduce.KV{
			Key:   fmt.Sprintf("zone%d/meter%d", i%8, i),
			Value: []byte(fmt.Sprintf("%d", 100+i%50)),
		}
	}
	job := mapreduce.Job{
		Name:  "zone-count",
		Input: input,
		Map: func(key string, value []byte, emit func(string, []byte)) {
			emit(key[:5], []byte{1})
		},
		Reduce: func(key string, values [][]byte) ([]byte, error) {
			return []byte(fmt.Sprintf("%d", len(values))), nil
		},
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mapreduce.Run(job); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("secure", func(b *testing.B) {
		var root cryptbox.Key
		eng, err := mapreduce.NewParallelSecureEngine(root, mapreduce.ParallelConfig{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(job); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnclaveRandomAccess is the memory-hierarchy micro-benchmark
// behind Figure 3: random 8-byte reads over working sets below and above
// the EPC, inside vs outside.
func BenchmarkEnclaveRandomAccess(b *testing.B) {
	for _, mb := range []uint64{32, 192} {
		for _, inside := range []bool{true, false} {
			name := fmt.Sprintf("ws=%dMB/inside=%v", mb, inside)
			b.Run(name, func(b *testing.B) {
				p := enclave.NewPlatform(enclave.Config{})
				var mem *enclave.Memory
				var base uint64
				ws := mb << 20
				if inside {
					var signer cryptbox.Digest
					enc, _ := p.ECreate(ws+(1<<20), signer)
					_, _ = enc.EAdd([]byte("probe"))
					_ = enc.EInit()
					arena, _ := enc.HeapArena()
					base = arena.Alloc(int(ws - (64 << 10)))
					mem = enc.Memory()
				} else {
					mem = p.UntrustedMemory()
					base = p.AllocUntrusted(ws)
				}
				rng := uint64(0x9E3779B97F4A7C15)
				start := mem.Cycles()
				n := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					mem.Access(base+rng%(ws-64), 8, false)
					n++
				}
				b.StopTimer()
				b.ReportMetric(float64(mem.Cycles()-start)/float64(n), "sim-cycles/access")
			})
		}
	}
}

// BenchmarkContainerThroughput drives encrypted stdout records through a
// running secure container — the steady-state data-path cost of the stack.
func BenchmarkContainerThroughput(b *testing.B) {
	node, cas := deploySecure(b, "bench/tp", []byte("B"), nil, nil)
	c, err := node.Run("bench/tp", "1.0", cas)
	if err != nil {
		b.Fatal(err)
	}
	line := []byte("meter-00042 1.234 kW")
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Runtime.Stdout(line); err != nil {
			b.Fatal(err)
		}
	}
}
