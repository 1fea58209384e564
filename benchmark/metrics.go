package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is the contract of BENCHMARK.json's end_to_end list, in order
// (TestBenchmarkJSONMatchesCatalogue pins the two against each other). Every
// workload reports every metric; README.md says what each means where it is
// not native (serve_* on simulation workloads, sim_* on simd_serve).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.08},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sim_qos_ratio", "fraction", "higher", 0.08},
	{"sim_delay_ms", "ms", "lower", 0.25},
	{"sim_energy_j_per_qos_pkt", "J", "lower", 0.25},
	{"serve_p50_ms", "ms", "lower", 0.25},
	{"serve_p99_ms", "ms", "lower", 0.25},
	{"serve_ops_per_s", "1/s", "higher", 0.25},
}

// perLayer is BENCHMARK.json's per_layer list: (a) deterministic counts read
// from Result.Stats and simd.MetricsSnapshot, (b) spans recorded by this
// package's own driver around the calls into each layer, (c) isolated probes
// of single public functions on the workload's own world.
var perLayer = []metricDef{
	// (a) counts
	{"des.events", "count", "lower", 0},
	{"world.neighbor_rebuilds", "count", "lower", 0},
	{"world.neighbor_hits", "count", "higher", 0},
	{"world.neighbor_hit_ratio", "fraction", "higher", 0},
	{"world.grid_rebuilds", "count", "lower", 0},
	{"world.fault_injections", "count", "lower", 0},
	{"world.lost_sends", "count", "lower", 0},
	{"kautz.route_table_hits", "count", "higher", 0},
	{"kautz.route_table_misses", "count", "lower", 0},
	{"core.failover_switches", "count", "lower", 0},
	{"core.maintain_checks", "count", "lower", 0},
	{"core.rehomes", "count", "lower", 0},
	{"energy.comm_j", "J", "lower", 0},
	{"energy.construction_j", "J", "lower", 0},
	{"chaos.faults_applied", "count", "lower", 0},
	{"recovery.sweeps", "count", "lower", 0},
	{"recovery.reelections", "count", "lower", 0},
	{"recovery.merges", "count", "lower", 0},
	{"recovery.takeovers", "count", "lower", 0},
	{"metrics.created", "count", "higher", 0},
	{"metrics.delivered", "count", "higher", 0},
	{"metrics.qos", "count", "higher", 0},
	{"metrics.dropped", "count", "lower", 0},
	{"simd.cache_hits", "count", "higher", 0},
	{"simd.cache_misses", "count", "lower", 0},
	{"simd.deduped", "count", "higher", 0},
	{"simd.rejected", "count", "lower", 0},
	{"simd.executed", "count", "lower", 0},
	{"simd.cache_hit_ratio", "fraction", "higher", 0},
	{"bench.failed_share", "fraction", "lower", 0},
	// (b) spans
	{"scenario.build_s", "s", "lower", 0},
	{"system.build_s", "s", "lower", 0},
	{"experiment.attach_s", "s", "lower", 0},
	{"des.warmup_drain_s", "s", "lower", 0},
	{"des.window_drain_s", "s", "lower", 0},
	{"des.drain_self_s", "s", "lower", 0},
	{"core.maintain_s", "s", "lower", 0},
	{"core.maintain_rounds", "count", "lower", 0},
	{"core.inject_s", "s", "lower", 0},
	{"core.inject_calls", "count", "lower", 0},
	{"world.set_failed_s", "s", "lower", 0},
	{"bench.span_overhead", "ratio", "lower", 0},
	// (c) probes
	{"world.neighbors_ns", "ns", "lower", 0},
	{"world.send_ns", "ns", "lower", 0},
	{"world.flood_ns", "ns", "lower", 0},
	{"mobility.at_ns", "ns", "lower", 0},
	{"geo.grid_within_ns", "ns", "lower", 0},
	{"kautz.table_routes_ns", "ns", "lower", 0},
	{"kautz.table_routes_allocs", "count", "lower", 0},
	{"kautz.routes_direct_ns", "ns", "lower", 0},
	{"des.schedule_fire_ns", "ns", "lower", 0},
	{"des.tagged_fire_ns", "ns", "lower", 0},
	{"energy.charge_paper_ns", "ns", "lower", 0},
	{"energy.charge_radio_ns", "ns", "lower", 0},
	{"core.maintain_round_ns", "ns", "lower", 0},
	{"core.maintain_round_allocs", "count", "lower", 0},
	{"core.recover_sweep_ns", "ns", "lower", 0},
	{"metrics.collector_ns", "ns", "lower", 0},
	{"trace.record_ns", "ns", "lower", 0},
	{"experiment.config_key_ns", "ns", "lower", 0},
	{"simd.submit_hit_ns", "ns", "lower", 0},
	{"bench.spin_ns", "ns", "lower", 0},
}

// sample is a set of repeated measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the middle two for even counts),
// or 0 for an empty sample.
func (s sample) median() float64 {
	v := s.sorted()
	switch n := len(v); {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

func (s sample) min() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[0]
}

func (s sample) max() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[len(s)-1]
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func (s sample) percentile(p float64) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1]
}
