package main

import (
	"fmt"
	"math/rand"
	"time"

	"refer"
	"refer/internal/chaos"
	"refer/internal/core"
	"refer/internal/energy"
	"refer/internal/metrics"
	"refer/internal/scenario"
	"refer/internal/world"
)

// workloadDef names one workload and records why it exists; sizes and
// profile shares are in README.md.
type workloadDef struct {
	name string
	why  string
	// configs generates the workload's simulation configs from the benchmark
	// seed (nil for simd_serve, whose plan is generated in serve.go).
	configs func(g *generator) ([]refer.RunConfig, error)
}

var workloads = []workloadDef{
	{"paper_figs", "regenerating the paper's figures: all four systems at 200 sensors, where baselines and floods do the work", paperFigs},
	{"refer_growth", "20000-sensor REFER with idle forwarding: scenario and overlay build, construction floods, maintenance, radio energy", referGrowth},
	{"refer_heavy", "5000 mobile sensors under 64 sources per second: forwarding, neighbor-cache rebuilds and mobility dominate", referHeavy},
	{"refer_faults", "static 3x3 lattice under churn and actuator kills: neighbor-cache hits, Theorem 3.8 failover and recovery", referFaults},
	{"simd_serve", "closed-loop HTTP load on refer-simd, 95% repeated configs: canonicalisation, result cache and queueing", nil},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// paperConfig is the paper's run shape (Section IV) with every field spelled
// out, so the benchmark's inputs do not move if a library default does and
// the span-pass driver needs no access to the unexported defaulting.
func paperConfig(system string, sc scenario.Params) refer.RunConfig {
	return refer.RunConfig{
		System:           system,
		Scenario:         sc,
		Warmup:           100 * time.Second,
		Duration:         1000 * time.Second,
		BurstInterval:    10 * time.Second,
		Sources:          5,
		PacketsPerSource: 6,
		PacketSpacing:    20 * time.Millisecond,
		FaultRotation:    10 * time.Second,
		QoSDeadline:      metrics.DefaultQoSDeadline,
	}
}

// generator derives every input from the benchmark seed: scenario seeds,
// chaos seeds and the serve plan all come from one stream, so the same
// -seed gives the same inputs and the program under test only ever sees
// the generated configs.
type generator struct {
	rng     *rand.Rand
	skipped int // candidate seeds discarded by the feasibility filter
	// smoke shrinks every workload to a size the package's tests can afford;
	// the benchmark itself never sets it.
	smoke bool
}

func newGenerator(seed int64, workload string, smoke bool) *generator {
	// Mix the workload name in so workloads do not share deployments.
	h := int64(0)
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return &generator{rng: rand.New(rand.NewSource(seed*1_000_003 + h)), smoke: smoke}
}

// feasible draws scenario seeds until every config make(seed) returns can
// build its deployment and system: REFER's Kautz embedding is infeasible on
// some placements (about 1 seed in 800 at 200 sensors, 1 in 20 on the
// static 3x3 lattice), and a benchmark operation must not fail by design.
// The skipping is deterministic: it depends only on the candidate stream.
func (g *generator) feasible(make func(seed int64) []refer.RunConfig) ([]refer.RunConfig, error) {
	for try := 0; try < 64; try++ {
		// Scenario.Build seeds three streams at seed, seed+1 and seed+2;
		// keeping candidates far apart keeps deployments independent.
		cfgs := make(g.rng.Int63n(1<<40) * 8)
		ok := true
		for _, cfg := range cfgs {
			if _, _, err := buildSystem(cfg, false); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return cfgs, nil
		}
		g.skipped++
	}
	return nil, fmt.Errorf("no feasible deployment in 64 candidate seeds")
}

// buildSystem performs the set-up half of a run through public functions
// only, exactly as experiment.Run does it: resolve the energy model, build
// the deployment, construct the system and build its topology. With
// ownMaintenance the REFER family is constructed with its periodic
// maintenance tick disabled so the caller can drive MaintainOnce itself.
func buildSystem(cfg refer.RunConfig, ownMaintenance bool) (*world.World, refer.System, error) {
	w, err := buildWorld(cfg)
	if err != nil {
		return nil, nil, err
	}
	sys, err := newSystem(cfg.System, w, ownMaintenance)
	if err != nil {
		return nil, nil, err
	}
	if err := sys.Build(); err != nil {
		return nil, nil, fmt.Errorf("building %s (seed %d): %w", cfg.System, cfg.Scenario.Seed, err)
	}
	return w, sys, nil
}

func buildWorld(cfg refer.RunConfig) (*world.World, error) {
	model, err := cfg.Energy.Build()
	if err != nil {
		return nil, err
	}
	sc := cfg.Scenario
	if model != nil && sc.Energy == nil {
		sc.Energy = model
		if sc.PacketBits <= 0 {
			sc.PacketBits = cfg.Energy.PacketBits
		}
	}
	return refer.BuildWorld(sc), nil
}

func referFamily(system string) bool {
	return system == refer.SystemREFER || system == refer.SystemREFERRecovery
}

func newSystem(name string, w *world.World, ownMaintenance bool) (refer.System, error) {
	if ownMaintenance && referFamily(name) {
		cfg := core.DefaultConfig()
		cfg.DisableMaintenance = true
		return core.New(w, cfg), nil
	}
	return refer.NewSystem(name, w)
}

// paperFigs: AllSystems × MaxSpeed {1,3,5} × FaultCount {0,10} at 200
// sensors with the paper's windows — 24 runs. The four systems of one
// (speed, faults) cell share a deployment, as in the figures.
func paperFigs(g *generator) ([]refer.RunConfig, error) {
	var out []refer.RunConfig
	speeds := []float64{1, 3, 5}
	if g.smoke {
		speeds = speeds[1:2]
	}
	for _, speed := range speeds {
		for _, faults := range []int{0, 10} {
			cell, err := g.feasible(func(seed int64) []refer.RunConfig {
				var cfgs []refer.RunConfig
				for _, sys := range refer.AllSystems() {
					cfg := paperConfig(sys, scenario.Params{Seed: seed, Sensors: 200, MaxSpeed: speed})
					cfg.FaultCount = faults
					if g.smoke {
						cfg.Warmup, cfg.Duration = 2*time.Second, 10*time.Second
					}
					cfgs = append(cfgs, cfg)
				}
				return cfgs
			})
			if err != nil {
				return nil, err
			}
			out = append(out, cell...)
		}
	}
	return out, nil
}

// referGrowth: one S4-frontier-shaped REFER run with forwarding idle.
func referGrowth(g *generator) ([]refer.RunConfig, error) {
	return g.feasible(func(seed int64) []refer.RunConfig {
		cfg := paperConfig(refer.SystemREFER, scenario.Params{Seed: seed, Sensors: 20000, MaxSpeed: 1, ActuatorGrid: 15})
		cfg.Energy = energy.Spec{Model: energy.ModelRadio}
		// The construction floods of 20000 sensors keep the radios busy until
		// about 21 s of virtual time, so the window opens at 30 s: a burst
		// caught in that backlog waits ten seconds and made the sim_* metrics
		// swing 12–35 % between seeds. Ten times the paper's five sources for
		// the same reason — forwarding stays idle (under 3 % of the events),
		// but the ratios rest on 1500 packets instead of 150.
		cfg.Warmup, cfg.Duration = 30*time.Second, 50*time.Second
		cfg.Sources = 50
		if g.smoke {
			cfg.Scenario.Sensors, cfg.Scenario.ActuatorGrid = 1000, 4
			cfg.Warmup, cfg.Duration = 5*time.Second, 10*time.Second
		}
		return []refer.RunConfig{cfg}
	})
}

// referHeavy: one S5-shaped REFER run sized so forwarding dominates.
func referHeavy(g *generator) ([]refer.RunConfig, error) {
	return g.feasible(func(seed int64) []refer.RunConfig {
		cfg := paperConfig(refer.SystemREFER, scenario.Params{Seed: seed, Sensors: 5000, MaxSpeed: 5, ActuatorGrid: 8})
		cfg.Sources, cfg.BurstInterval = 64, time.Second
		cfg.Warmup, cfg.Duration = 20*time.Second, 180*time.Second
		if g.smoke {
			cfg.Scenario.Sensors, cfg.Scenario.ActuatorGrid = 1000, 4
			cfg.Sources = 16
			cfg.Warmup, cfg.Duration = 5*time.Second, 15*time.Second
		}
		return []refer.RunConfig{cfg}
	})
}

// referFaults: 32 REFER/recovery runs on the static 3×3 lattice under churn
// (0.3 crashes/s, 30 s downtime) plus four permanent actuator kills.
func referFaults(g *generator) ([]refer.RunConfig, error) {
	var out []refer.RunConfig
	runs := 32
	if g.smoke {
		runs = 3
	}
	for i := 0; i < runs; i++ {
		run, err := g.feasible(func(seed int64) []refer.RunConfig {
			cfg := paperConfig(refer.SystemREFERRecovery, scenario.Params{Seed: seed, Sensors: 400, ActuatorGrid: 3})
			cfg.FaultCount, cfg.Sources = 20, 10
			if g.smoke {
				// Long enough for the four kills and their repairs.
				cfg.Warmup, cfg.Duration = 20*time.Second, 160*time.Second
			}
			sched := &chaos.Schedule{Seed: seed + 3, Events: []chaos.Event{{
				Kind:     chaos.Churn,
				Rate:     0.3,
				Duration: chaos.Duration(24 * time.Hour),
				Downtime: chaos.Duration(30 * time.Second),
			}}}
			for k := 0; k < 4; k++ {
				sched.Events = append(sched.Events, chaos.Event{
					Kind: chaos.ActuatorKill,
					At:   chaos.Duration(time.Duration(120+10*k) * time.Second),
					Node: 1 + k, // Duration 0: permanent
				})
			}
			cfg.Chaos = sched
			return []refer.RunConfig{cfg}
		})
		if err != nil {
			return nil, err
		}
		out = append(out, run...)
	}
	return out, nil
}
