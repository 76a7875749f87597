package main

import (
	"bytes"
	"runtime"
	"time"

	"securecloud/internal/cryptbox"
	"securecloud/internal/enclave"
	"securecloud/internal/registry"
	"securecloud/internal/transfer"
)

// Probes call one layer's public function directly, on inputs shaped like
// the workload's own, and time it with the wall clock. They run after the
// windows, so they cannot disturb an end-to-end figure.

const probeRounds = 2000

// probeCommon measures the two layers under every workload: the AEAD
// (cryptbox) and the simulated memory hierarchy (enclave.Memory), both at
// the workload's payload size.
func probeCommon(payloadBytes int, v map[string]float64) {
	if payloadBytes <= 0 {
		return
	}
	var key cryptbox.Key
	key[0] = 0xB7
	box, err := cryptbox.NewBox(key)
	if err != nil {
		return
	}
	plain := bytes.Repeat([]byte{0x5A}, payloadBytes)
	aad := []byte("probe")
	kib := float64(payloadBytes) / 1024

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var sealed []byte
	for i := 0; i < probeRounds; i++ {
		sealed, _ = box.Seal(plain, aad)
	}
	sealNS := float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&ms1)
	v["cryptbox.seal_ns_per_kib"] = sealNS / probeRounds / kib
	v["cryptbox.seal_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / probeRounds

	t0 = time.Now()
	for i := 0; i < probeRounds; i++ {
		if _, err := box.Open(sealed, aad); err != nil {
			return
		}
	}
	v["cryptbox.open_ns_per_kib"] = float64(time.Since(t0).Nanoseconds()) / probeRounds / kib

	// One payload-sized access per round, walking a 4 MiB region so lines
	// hit and miss the modelled LLC the way a staging buffer does.
	cfg := enclave.DefaultConfig()
	enc, arena, err := enclave.NewWorker(cfg, 8<<20, "bench-access-probe")
	if err != nil {
		return
	}
	defer enc.Destroy()
	const region = 4 << 20
	base := arena.Alloc(region)
	mem := enc.Memory()
	lines := (payloadBytes + int(cfg.LineSize) - 1) / int(cfg.LineSize)
	off := 0
	t0 = time.Now()
	for i := 0; i < probeRounds; i++ {
		if off+payloadBytes > region {
			off = 0
		}
		mem.AccessRange(base+uint64(off), payloadBytes, false)
		off += payloadBytes
	}
	v["enclave.access_ns_per_line"] = float64(time.Since(t0).Nanoseconds()) / probeRounds / float64(lines)
}

// registryCounters reports the registry's footprint and how often a chunk
// it was handed was already there; it returns the bytes stored.
func registryCounters(reg *registry.Registry, v map[string]float64) int64 {
	rs := reg.Stats()
	v["registry.bytes_stored"] = float64(rs.BlobBytes)
	if n := float64(rs.DedupHits) + float64(rs.Blobs); n > 0 {
		v["registry.dedup_hit_ratio"] = float64(rs.DedupHits) / n
	}
	return rs.BlobBytes
}

// probeTransfer packs and unpacks one shard-sized blob through the
// convergent chunk path the durable store's snapshots use.
func probeTransfer(blob []byte, chunkSize int, v map[string]float64) error {
	const rounds = 5
	mb := float64(len(blob)) / 1e6
	var (
		m      *transfer.Manifest
		chunks [][]byte
		err    error
	)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if m, chunks, err = transfer.PackConvergent("probe", blob, chunkSize); err != nil {
			return err
		}
	}
	v["transfer.pack_mb_s"] = mb * rounds / time.Since(t0).Seconds()

	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		var out bytes.Buffer
		out.Grow(len(blob))
		err := transfer.Unpack(m, cryptbox.Key{}, &out, func(idx int) ([]byte, error) { return chunks[idx], nil })
		if err != nil {
			return err
		}
	}
	v["transfer.unpack_mb_s"] = mb * rounds / time.Since(t0).Seconds()
	return nil
}
