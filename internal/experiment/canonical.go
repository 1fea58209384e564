package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"refer/internal/chaos"
	"refer/internal/energy"
	"refer/internal/recovery"
	"refer/internal/scenario"
)

// Config canonicalization: two RunConfigs that describe the same simulation
// — whether a field was spelled out or left to default — hash to the same
// key, and the replay-determinism guarantee (same canonical config + seed →
// byte-identical Result modulo host timing) makes that key safe to use as a
// content address for cached results. refer-simd's result cache is keyed on
// exactly this.

// canonicalRun is the serialized form ConfigKey hashes: every field of
// RunConfig that influences the simulation outcome, fully defaulted. Field
// order is fixed by the struct definition, so the JSON encoding is
// deterministic. The Trace recorder pointer is reduced to its presence —
// attaching a recorder changes Stats.Trace counts in the Result, so traced
// and untraced runs must not share a cache entry.
type canonicalRun struct {
	System           string          `json:"system"`
	Scenario         scenario.Params `json:"scenario"`
	Warmup           time.Duration   `json:"warmup_ns"`
	Duration         time.Duration   `json:"duration_ns"`
	BurstInterval    time.Duration   `json:"burst_interval_ns"`
	Sources          int             `json:"sources"`
	PacketsPerSource int             `json:"packets_per_source"`
	PacketSpacing    time.Duration   `json:"packet_spacing_ns"`
	FaultCount       int             `json:"fault_count"`
	FaultRotation    time.Duration   `json:"fault_rotation_ns"`
	QoSDeadline      time.Duration   `json:"qos_deadline_ns"`
	Traced           bool            `json:"traced"`
	Chaos            *chaos.Schedule `json:"chaos,omitempty"`
	// Energy is appended after the pre-existing fields and omitted when the
	// run uses the default model, so every config written before the energy
	// redesign keeps its key (pinned by TestConfigKeyEnergyStability).
	Energy *energy.Spec `json:"energy,omitempty"`
	// Recovery follows the same append-only rule: omitted for the zero spec,
	// so every config written before the recovery subsystem keeps its key
	// (pinned by TestConfigKeyRecoveryStability).
	Recovery *recovery.Spec `json:"recovery,omitempty"`
}

// ConfigKey returns the content address of a run: the hex SHA-256 of the
// canonicalized (fully defaulted) config, seed included. Identical
// submissions — byte-for-byte or merely semantically, with defaults spelled
// out versus omitted — map to the same key.
func ConfigKey(cfg RunConfig) (string, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return "", err
	}
	// The two scenario fields excluded from serialization change the energy
	// ledgers, so a key that ignored them would collide across different
	// results. Both have a canonical spelling in RunConfig.Energy.
	if cfg.Scenario.Energy != nil {
		return "", fmt.Errorf("experiment: Scenario.Energy carries a custom cost model with no canonical form; use RunConfig.Energy")
	}
	if cfg.Scenario.PacketBits > 0 {
		return "", fmt.Errorf("experiment: Scenario.PacketBits has no canonical form; use RunConfig.Energy.PacketBits")
	}
	c := canonicalRun{
		System:           cfg.System,
		Scenario:         cfg.Scenario.Defaults(),
		Warmup:           cfg.Warmup,
		Duration:         cfg.Duration,
		BurstInterval:    cfg.BurstInterval,
		Sources:          cfg.Sources,
		PacketsPerSource: cfg.PacketsPerSource,
		PacketSpacing:    cfg.PacketSpacing,
		FaultCount:       cfg.FaultCount,
		FaultRotation:    cfg.FaultRotation,
		QoSDeadline:      cfg.QoSDeadline,
		Traced:           cfg.Trace != nil,
		Chaos:            cfg.Chaos,
	}
	if !cfg.Energy.IsZero() {
		spec := cfg.Energy
		c.Energy = &spec
	}
	if !cfg.Recovery.IsZero() {
		spec := cfg.Recovery
		c.Recovery = &spec
	}
	return hashJSON(c)
}

// canonicalFigure is the serialized form OptionsKey and TableKey hash: a
// label plus the options the grid resolves the caller's to. Parallelism and
// Progress are deliberately excluded: figure output is byte-identical at any
// sweep worker count (pinned by TestParallelismInvariance), and a progress
// callback observes a build without changing it.
type canonicalFigure struct {
	Figure           string          `json:"figure"`
	Seeds            []int64         `json:"seeds"`
	Warmup           time.Duration   `json:"warmup_ns"`
	Duration         time.Duration   `json:"duration_ns"`
	Sensors          int             `json:"sensors"`
	Systems          []string        `json:"systems"`
	PacketsPerSource int             `json:"packets_per_source"`
	TraceSample      int             `json:"trace_sample"`
	Chaos            *chaos.Schedule `json:"chaos,omitempty"`
	Energy           *energy.Spec    `json:"energy,omitempty"`
	Recovery         *recovery.Spec  `json:"recovery,omitempty"`
}

// OptionsKey returns the content address of a figure build: the hex SHA-256
// of the registry ID plus the canonicalized options its sweep will run.
func OptionsKey(figureID string, o Options) (string, error) {
	spec, err := figureSpec(figureID)
	if err != nil {
		return "", err
	}
	return figureKey(spec.ID, grids[spec.Grid], o)
}

// TableKey returns the content address of the Table behind a figure build:
// OptionsKey's canonical form under the grid's name instead of the figure's,
// so the figures of one grid share it.
func TableKey(figureID string, o Options) (string, error) {
	spec, err := figureSpec(figureID)
	if err != nil {
		return "", err
	}
	return figureKey(spec.Grid, grids[spec.Grid], o)
}

func figureKey(label string, g grid, o Options) (string, error) {
	if err := o.validate(); err != nil {
		return "", err
	}
	o = g.resolve(o)
	c := canonicalFigure{
		Figure:           label,
		Seeds:            o.Seeds,
		Warmup:           o.Warmup,
		Duration:         o.Duration,
		Sensors:          o.Sensors,
		Systems:          o.Systems,
		PacketsPerSource: o.PacketsPerSource,
		TraceSample:      o.TraceSample,
		Chaos:            o.Chaos,
	}
	if !o.Energy.IsZero() {
		c.Energy = &o.Energy
	}
	if !o.Recovery.IsZero() {
		c.Recovery = &o.Recovery
	}
	return hashJSON(c)
}

func hashJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("experiment: canonicalizing config: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
