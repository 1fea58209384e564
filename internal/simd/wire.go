package simd

import (
	"fmt"
	"math"
	"time"

	"refer/internal/chaos"
	"refer/internal/energy"
	"refer/internal/experiment"
	"refer/internal/recovery"
	"refer/internal/scenario"
)

// Wire format of the refer-simd HTTP API (schema in EXPERIMENTS.md).
// Durations travel as seconds so clients never deal in nanosecond integers;
// zero fields take the experiment package's paper defaults, and the
// canonicalized (fully defaulted) config is what the result cache hashes.
// This file only converts: what a config may contain is decided once, by the
// validation experiment.ConfigKey and OptionsKey run before a key exists.

// RunRequest is the JSON body of POST /runs: one simulation run. Every
// field is optional except that a meaningful submission names at least a
// seed; zero values default to the paper's parameters (200 sensors, 100 s
// warmup, 1000 s window, …).
type RunRequest struct {
	// System is the protocol under test (GET /systems lists the accepted
	// names); empty selects REFER.
	System string `json:"system,omitempty"`
	// Seed drives deployment and all in-world randomness.
	Seed int64 `json:"seed"`
	// Deployment parameters (scenario.Params).
	Sensors       int     `json:"sensors,omitempty"`
	MaxSpeed      float64 `json:"max_speed,omitempty"`
	SideM         float64 `json:"side_m,omitempty"`
	SensorRangeM  float64 `json:"sensor_range_m,omitempty"`
	ActuatorRange float64 `json:"actuator_range_m,omitempty"`
	AnchorRadiusM float64 `json:"anchor_radius_m,omitempty"`
	ActuatorGrid  int     `json:"actuator_grid,omitempty"`
	GridSpacingM  float64 `json:"grid_spacing_m,omitempty"`
	// SensorBatteryJ constrains every sensor to a battery budget in Joules
	// (0: unconstrained, the paper's setting). Pair with an energy spec for
	// lifetime studies.
	SensorBatteryJ float64 `json:"sensor_battery_j,omitempty"`
	// Run windows and traffic pattern.
	WarmupS          float64 `json:"warmup_s,omitempty"`
	DurationS        float64 `json:"duration_s,omitempty"`
	BurstIntervalS   float64 `json:"burst_interval_s,omitempty"`
	Sources          int     `json:"sources,omitempty"`
	PacketsPerSource int     `json:"packets_per_source,omitempty"`
	PacketSpacingS   float64 `json:"packet_spacing_s,omitempty"`
	// Fault rotation and QoS deadline.
	FaultCount     int     `json:"fault_count,omitempty"`
	FaultRotationS float64 `json:"fault_rotation_s,omitempty"`
	QoSDeadlineS   float64 `json:"qos_deadline_s,omitempty"`
	// Chaos optionally attaches a deterministic fault schedule (same JSON
	// schema as refer-bench -chaos; see EXPERIMENTS.md).
	Chaos *chaos.Schedule `json:"chaos,omitempty"`
	// Energy optionally selects a per-packet cost model (same schema as
	// RunConfig.Energy; see EXPERIMENTS.md). Absent keeps the paper's flat
	// constants and the run's cache key unchanged.
	Energy *energy.Spec `json:"energy,omitempty"`
	// Recovery optionally enables the self-healing recovery protocols (same
	// schema as RunConfig.Recovery; see EXPERIMENTS.md). Absent keeps
	// recovery off and the run's cache key unchanged.
	Recovery *recovery.Spec `json:"recovery,omitempty"`
}

// secs converts a seconds field, rejecting values a time.Duration cannot
// hold (the conversion would wrap, e.g. 1e10 s to −2562047 h).
func secs(name string, v float64) (time.Duration, error) {
	ns := v * float64(time.Second)
	if !(math.Abs(ns) < math.MaxInt64) {
		return 0, fmt.Errorf("%s = %g does not fit a duration", name, v)
	}
	return time.Duration(ns), nil
}

// Config converts the wire request into an experiment.RunConfig.
func (r RunRequest) Config() (experiment.RunConfig, error) {
	cfg := experiment.RunConfig{
		System: r.System,
		Scenario: scenario.Params{
			Seed:          r.Seed,
			Sensors:       r.Sensors,
			MaxSpeed:      r.MaxSpeed,
			Side:          r.SideM,
			SensorRange:   r.SensorRangeM,
			ActuatorRange: r.ActuatorRange,
			AnchorRadius:  r.AnchorRadiusM,
			ActuatorGrid:  r.ActuatorGrid,
			GridSpacing:   r.GridSpacingM,
			SensorBattery: r.SensorBatteryJ,
		},
		Sources:          r.Sources,
		PacketsPerSource: r.PacketsPerSource,
		FaultCount:       r.FaultCount,
		Chaos:            r.Chaos,
	}
	if r.Energy != nil {
		cfg.Energy = *r.Energy
	}
	if r.Recovery != nil {
		cfg.Recovery = *r.Recovery
	}
	for _, f := range []struct {
		name string
		v    float64
		dst  *time.Duration
	}{
		{"warmup_s", r.WarmupS, &cfg.Warmup},
		{"duration_s", r.DurationS, &cfg.Duration},
		{"burst_interval_s", r.BurstIntervalS, &cfg.BurstInterval},
		{"packet_spacing_s", r.PacketSpacingS, &cfg.PacketSpacing},
		{"fault_rotation_s", r.FaultRotationS, &cfg.FaultRotation},
		{"qos_deadline_s", r.QoSDeadlineS, &cfg.QoSDeadline},
	} {
		var err error
		if *f.dst, err = secs(f.name, f.v); err != nil {
			return experiment.RunConfig{}, err
		}
	}
	return cfg, nil
}

// FigureRequest is the JSON body of POST /figures/{id}/runs: build one
// registered figure (a full sweep) on the server. Zero fields take the
// sweep defaults (5 seeds, paper windows, all four systems).
type FigureRequest struct {
	Seeds            []int64  `json:"seeds,omitempty"`
	WarmupS          float64  `json:"warmup_s,omitempty"`
	DurationS        float64  `json:"duration_s,omitempty"`
	Sensors          int      `json:"sensors,omitempty"`
	Systems          []string `json:"systems,omitempty"`
	PacketsPerSource int      `json:"packets_per_source,omitempty"`
	// Parallelism bounds the sweep's concurrent runs; zero uses the
	// server's figure-parallelism setting. Figure output is byte-identical
	// at any worker count, so this is a latency knob, not a result knob.
	Parallelism int             `json:"parallelism,omitempty"`
	Chaos       *chaos.Schedule `json:"chaos,omitempty"`
	// Energy optionally prices every run of the sweep with a cost model
	// (same schema as RunConfig.Energy; see EXPERIMENTS.md).
	Energy *energy.Spec `json:"energy,omitempty"`
	// Recovery optionally enables the self-healing recovery protocols on
	// every run of the sweep (Options.Recovery).
	Recovery *recovery.Spec `json:"recovery,omitempty"`
}

// Options converts the wire request into sweep options.
func (r FigureRequest) Options() (experiment.Options, error) {
	o := experiment.Options{
		Seeds:            r.Seeds,
		Sensors:          r.Sensors,
		Systems:          r.Systems,
		PacketsPerSource: r.PacketsPerSource,
		Parallelism:      r.Parallelism,
		Chaos:            r.Chaos,
	}
	if r.Energy != nil {
		o.Energy = *r.Energy
	}
	if r.Recovery != nil {
		o.Recovery = *r.Recovery
	}
	var err error
	if o.Warmup, err = secs("warmup_s", r.WarmupS); err != nil {
		return experiment.Options{}, err
	}
	if o.Duration, err = secs("duration_s", r.DurationS); err != nil {
		return experiment.Options{}, err
	}
	return o, nil
}

// SubmitResponse is the JSON body returned by POST /runs and
// POST /figures/{id}/runs.
type SubmitResponse struct {
	// ID addresses the run in every other endpoint.
	ID string `json:"id"`
	// Key is the content address of the canonicalized submission.
	Key string `json:"key"`
	// State is the run's state at submission time: "queued", or "done"
	// when served from the result cache.
	State string `json:"state"`
	// Cached reports that the result was served from the cache without a
	// queue slot; Deduped that an identical submission was already queued
	// or running and this response addresses that run.
	Cached  bool `json:"cached,omitempty"`
	Deduped bool `json:"deduped,omitempty"`
}

// RunStatus is the JSON body of GET /runs/{id} (and each line of the
// GET /runs/{id}/events stream).
type RunStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // "run" or "figure"
	Key   string `json:"key"`
	State string `json:"state"`
	// Figure is the registry ID for figure runs.
	Figure string `json:"figure,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// SubmittedAt is RFC 3339; WallSeconds is queue-to-finish host time
	// for terminal runs.
	SubmittedAt string  `json:"submitted_at"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Progress reports a single run's virtual-clock advance while running.
	Progress *ProgressStatus `json:"progress,omitempty"`
	// Sweep reports a figure run's per-run sweep progress while running.
	Sweep *SweepStatus `json:"sweep,omitempty"`
}

// ProgressStatus is the wire form of experiment.RunProgress.
type ProgressStatus struct {
	SimTimeS  float64 `json:"sim_time_s"`
	SimEndS   float64 `json:"sim_end_s"`
	Fraction  float64 `json:"fraction"`
	DESEvents uint64  `json:"des_events"`
}

// SweepStatus is the wire form of experiment.ProgressEvent.
type SweepStatus struct {
	Done    int     `json:"done"`
	Total   int     `json:"total"`
	Aborted bool    `json:"aborted,omitempty"`
	System  string  `json:"system,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	X       float64 `json:"x,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Metrics is the JSON body of GET /metrics.
type Metrics struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Workers         int     `json:"workers"`
	QueueDepth      int     `json:"queue_depth"`
	QueueCapacity   int     `json:"queue_capacity"`
	RunsInFlight    int     `json:"runs_in_flight"`
	Submitted       uint64  `json:"submitted"`
	Completed       uint64  `json:"completed"`
	Failed          uint64  `json:"failed"`
	Cancelled       uint64  `json:"cancelled"`
	Rejected        uint64  `json:"rejected"`
	Deduped         uint64  `json:"deduped"`
	CacheEntries    int     `json:"cache_entries"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	DESEvents       uint64  `json:"des_events"`
	DESEventsPerSec float64 `json:"des_events_per_sec"`
	RunsTracked     int     `json:"runs_tracked"`
	// Recovery counters, accumulated across every executed run: completed
	// corner re-elections, cell merges and CAN zone takeovers, plus the
	// cumulative virtual detection→repair latency. All zero unless
	// submissions enable a recovery spec (or run REFER/recovery).
	RecoveryReelections uint64 `json:"recovery_reelections"`
	RecoveryMerges      uint64 `json:"recovery_merges"`
	RecoveryTakeovers   uint64 `json:"recovery_takeovers"`
	RecoveryLatencyNs   int64  `json:"recovery_latency_ns"`
}
