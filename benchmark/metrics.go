package main

import "fmt"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric the way BENCHMARK.json lists it. Bound is
// the share of the parent's median an end-to-end metric may worsen by
// (per-layer metrics have none).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the six figures every workload reports from its untraced
// window. The bounds are what the 2-vCPU sandbox allows, not what one
// would like: across ten runs of one binary the quartiles of the host
// figures lie 2-15 % of the median apart (run-to-run, not within a run),
// and a bound must stay clear of that to tell a regression from the host.
// sim_cycles_per_op is exact for a given seed (the smoke test and -compare
// hold it to bit-identity); its bound only has to absorb the difference
// between seeds, because the driver varies the seed, and scbr_churn_paging
// sets it at 9 %: the seed decides the order of the forest's roots, and
// with it how far Index.Remove scans.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p95_us", "us", "lower", 0.25},
	{"sim_cycles_per_op", "cycles", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.10},
}

// perLayer are the figures of the -trace pass, named <module>.<metric>.
// A workload reports 0 for the layers it does not touch.
var perLayer = []metricDef{
	{"wire.send_us_per_req", "us", "lower", 0},
	{"wire.recv_us_per_req", "us", "lower", 0},
	{"wire.gateway_us_per_req", "us", "lower", 0},
	{"wire.http_tax_us_per_req", "us", "lower", 0},
	{"wire.codec_us_per_batch", "us", "lower", 0},
	{"wire.bytes_per_payload_byte", "ratio", "lower", 0},
	{"wire.mail_dropped", "count", "lower", 0},

	{"microsvc.client_seal_us_per_req", "us", "lower", 0},
	{"microsvc.client_open_us_per_req", "us", "lower", 0},
	{"microsvc.step_us_per_req", "us", "lower", 0},
	{"microsvc.step_sim_cycles_per_req", "cycles", "lower", 0},
	{"microsvc.front_sim_cycles_per_req", "cycles", "lower", 0},
	{"microsvc.shed_ratio", "ratio", "lower", 0},
	{"microsvc.queue_depth_max", "count", "lower", 0},
	{"microsvc.boot_ms_per_replica", "ms", "lower", 0},

	{"eventbus.publish_us_per_msg", "us", "lower", 0},
	{"eventbus.poll_us_per_msg", "us", "lower", 0},
	{"eventbus.depth_max", "count", "lower", 0},

	{"cryptbox.seal_ns_per_kib", "ns", "lower", 0},
	{"cryptbox.open_ns_per_kib", "ns", "lower", 0},
	{"cryptbox.seal_allocs_per_op", "count", "lower", 0},

	{"enclave.access_ns_per_line", "ns", "lower", 0},
	{"enclave.host_ns_per_sim_kcycle", "ns", "lower", 0},
	{"enclave.epc_faults_per_op", "count", "lower", 0},
	{"enclave.cycle_share.epc-fault", "ratio", "lower", 0},
	{"enclave.cycle_share.mee", "ratio", "lower", 0},
	{"enclave.cycle_share.dram", "ratio", "lower", 0},
	{"enclave.cycle_share.llc-hit", "ratio", "higher", 0},
	{"enclave.cycle_share.transition", "ratio", "lower", 0},
	{"enclave.cycle_share.aex", "ratio", "lower", 0},
	{"enclave.cycle_share.cpu", "ratio", "higher", 0},

	{"scbr.publish_us_per_event", "us", "lower", 0},
	{"scbr.broker_publish_us", "us", "lower", 0},
	{"scbr.match_us_per_event", "us", "lower", 0},
	{"scbr.deliver_us_per_delivery", "us", "lower", 0},
	{"scbr.receive_us_per_delivery", "us", "lower", 0},
	{"scbr.checks_per_match", "count", "lower", 0},
	{"scbr.deliveries_per_event", "count", "higher", 0},
	{"scbr.shard_cycle_skew", "ratio", "lower", 0},
	{"scbr.subscribe_us_p50", "us", "lower", 0},
	{"scbr.unsubscribe_us_p50", "us", "lower", 0},
	{"scbr.subscribe_sim_cycles", "cycles", "lower", 0},
	{"scbr.unsubscribe_sim_cycles", "cycles", "lower", 0},
	{"scbr.store_mb", "MiB", "lower", 0},

	{"kvstore.putbatch_us_p50", "us", "lower", 0},
	{"kvstore.wal_append_us_per_batch", "us", "lower", 0},
	{"kvstore.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"kvstore.snapshot_ms", "ms", "lower", 0},
	{"kvstore.snapshot_dedup_ratio", "ratio", "higher", 0},
	{"kvstore.shards_reused_ratio", "ratio", "higher", 0},
	{"kvstore.gc_ms", "ms", "lower", 0},
	{"kvstore.gc_segments_retired", "count", "higher", 0},
	{"kvstore.stored_bytes_per_user_byte", "ratio", "lower", 0},
	{"kvstore.recover_chain_links", "count", "lower", 0},
	{"kvstore.replay_records", "count", "lower", 0},
	{"kvstore.bootstrap_sim_cycles", "cycles", "lower", 0},
	{"kvstore.replay_sim_cycles", "cycles", "lower", 0},
	{"kvstore.range_ms", "ms", "lower", 0},
	{"kvstore.ingest_us_per_reading", "us", "lower", 0},

	{"transfer.pack_mb_s", "MB/s", "higher", 0},
	{"transfer.unpack_mb_s", "MB/s", "higher", 0},
	{"transfer.chunks_per_snapshot", "count", "lower", 0},

	{"registry.putblobset_us_per_chunk", "us", "lower", 0},
	{"registry.blob_fetch_us_per_chunk", "us", "lower", 0},
	{"registry.dedup_hit_ratio", "ratio", "higher", 0},
	{"registry.bytes_stored", "bytes", "lower", 0},

	{"container.chunks_fetched_per_recover", "count", "lower", 0},
	{"container.cache_hit_ratio", "ratio", "higher", 0},
	{"container.pull_critical_cycles", "cycles", "lower", 0},
	{"container.boot_ms", "ms", "lower", 0},

	{"attest.key_release_us", "us", "lower", 0},
	{"attest.quote_cache_hit_ratio", "ratio", "higher", 0},

	{"mapreduce.run_ms_per_job", "ms", "lower", 0},
	{"mapreduce.map_sim_cycles", "cycles", "lower", 0},
	{"mapreduce.reduce_sim_cycles", "cycles", "lower", 0},
	{"mapreduce.sim_speedup", "ratio", "higher", 0},

	{"host.allocs_per_op", "count", "lower", 0},
	{"host.alloc_bytes_per_op", "bytes", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.generator_share", "ratio", "lower", 0},
	{"host.slice_spread_pct", "%", "lower", 0},
	{"host.latency_p99_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// layerMetrics turns the values a traced run collected into the full
// per-layer metric set, 0 for every name the workload left out. A name
// that is not in perLayer is a programming error in the workload.
func layerMetrics(vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayer))
	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		known[d.Name] = true
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("unknown per-layer metric %q", name)
		}
	}
	return out, nil
}
