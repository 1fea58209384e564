package experiment

import (
	"context"
	"math"
	"time"

	"refer/internal/scenario"
)

// The network-growth study (Figures S1–S3) pushes REFER far past the
// paper's 400-sensor evaluation ceiling: thousands of sensors over an
// actuator lattice whose triangulation yields hundreds of cells, comparing
// the indexed cell lookups against the pre-index linear scans
// (SystemREFERLinearScan). The two arms produce identical delivery and
// delay curves by construction — the index preserves every tie-break — so
// S1/S2 double as a conformance check, while S3 plots the maintenance work
// (cell predicate evaluations) the index removes.

// growthXs are the growth-study network sizes (sensor population).
var growthXs = []float64{1000, 2000, 5000, 10000}

// frontierXs extend the growth study toward the 100,000-sensor frontier. A
// run this size is one giant single-seed simulation: serial inside, with
// sweep-level parallelism across the three points.
var frontierXs = []float64{20000, 50000, 100000}

// gridFor returns the actuator lattice side n for a sensor population,
// keeping the density near the paper's 200 sensors / 4 cells: n×n actuators
// triangulate into 2(n-1)² cells, so sensors-per-cell stays around 50.
func gridFor(sensors float64) int {
	return int(math.Round(math.Sqrt(sensors/100))) + 1
}

// growthConfig is the S1–S4 run shape: the paper's traffic over a deployment
// of x sensors moving at 1 m/s.
func growthConfig(x float64, seed int64) RunConfig {
	return RunConfig{
		Scenario: scenario.Params{
			Seed:         seed,
			Sensors:      int(x),
			MaxSpeed:     1,
			ActuatorGrid: gridFor(x),
		},
	}
}

// growthSweep runs the S1–S3 grid: REFER vs its linear-scan ablation over
// growing deployments at 1 m/s. The full-length paper windows would make a
// 10,000-node sweep take hours, so unset windows default to a short
// measured slice (the growth curves compare configurations, not absolute
// paper numbers).
func growthSweep(ctx context.Context, o Options, pick func(Result) float64) (Figure, error) {
	if len(o.Systems) == 0 {
		o.Systems = []string{SystemREFER, SystemREFERLinearScan}
	}
	return sensorSweep(ctx, o, growthXs, growthConfig, pick)
}

// frontierSweep runs a frontier grid (S4, S5): REFER alone (the linear-scan
// ablation is quadratic in this regime and the two arms were already shown
// identical on S1/S2), one seed, because each point is a single giant run.
func frontierSweep(ctx context.Context, o Options, xs []float64, configure func(x float64, seed int64) RunConfig, pick func(Result) float64) (Figure, error) {
	if len(o.Systems) == 0 {
		o.Systems = []string{SystemREFER}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1}
	}
	return sensorSweep(ctx, o, xs, configure, pick)
}

// sensorSweep is the shared tail of the S sweeps: the short default windows,
// then the sweep over sensor populations.
func sensorSweep(ctx context.Context, o Options, xs []float64, configure func(x float64, seed int64) RunConfig, pick func(Result) float64) (Figure, error) {
	if o.Warmup == 0 {
		o.Warmup = 20 * time.Second
	}
	if o.Duration == 0 {
		o.Duration = 60 * time.Second
	}
	o = o.withDefaults()
	fig, err := sweep(ctx, o, xs, configure, pick)
	fig.XLabel = "sensors"
	return fig, err
}

// heavyXs are the heavy-traffic frontier sizes of the S5 study: large
// enough that per-hop neighbor-cache rebuilds dominate the run, small
// enough to finish without the 100k point's hours.
var heavyXs = []float64{20000, 50000}

// heavyConfig is the S5 run shape: mobile heavy-traffic frontier
// deployments. MaxSpeed 5 (the paper's cap) keeps neighbor caches churning
// so per-hop rebuilds dominate the run.
func heavyConfig(x float64, seed int64) RunConfig {
	return RunConfig{
		// A burst every second from 64 sources — an order of magnitude
		// above the paper's offered load — so forwarding, not protocol
		// upkeep, is the run's dominant cost.
		Sources:       64,
		BurstInterval: time.Second,
		Scenario: scenario.Params{
			Seed:         seed,
			Sensors:      int(x),
			MaxSpeed:     5,
			ActuatorGrid: gridFor(x),
		},
	}
}

func growthDelivery(ctx context.Context, o Options) (Figure, error) {
	fig, err := growthSweep(ctx, o, deliveryRatio)
	fig.YLabel = "delivery ratio"
	return fig, err
}

func growthDelay(ctx context.Context, o Options) (Figure, error) {
	fig, err := growthSweep(ctx, o, func(r Result) float64 { return r.MeanDelay.Seconds() * 1000 })
	fig.YLabel = "delay (ms)"
	return fig, err
}

func growthMaintainCost(ctx context.Context, o Options) (Figure, error) {
	fig, err := growthSweep(ctx, o, func(r Result) float64 { return float64(r.Stats.MaintainChecks) })
	fig.YLabel = "cell predicate evaluations"
	return fig, err
}

func frontierDelivery(ctx context.Context, o Options) (Figure, error) {
	fig, err := frontierSweep(ctx, o, frontierXs, growthConfig, deliveryRatio)
	fig.YLabel = "delivery ratio"
	return fig, err
}

func heavyDelivery(ctx context.Context, o Options) (Figure, error) {
	fig, err := frontierSweep(ctx, o, heavyXs, heavyConfig, deliveryRatio)
	fig.YLabel = "delivery ratio"
	return fig, err
}
