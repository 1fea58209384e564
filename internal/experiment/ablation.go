package experiment

import (
	"context"
	"time"

	"refer/internal/chaos"
	"refer/internal/scenario"
)

// ablationFailover (A1) quantifies Theorem 3.8's contribution: REFER with and
// without the alternate-path failover, swept over the faulty-node counts of
// Figure 7, measuring QoS throughput. Without failover a relay drops the
// packet the moment its greedy shortest successor fails.
func ablationFailover(ctx context.Context, o Options) (Figure, error) {
	o = o.withDefaults()
	o.Systems = []string{SystemREFER, SystemREFERNoFailover}
	fig, err := faultSweep(ctx, o, func(r Result) float64 { return r.Throughput })
	fig.YLabel = "throughput (pkt/s)"
	return fig, err
}

// ablationMaintenance (A2) quantifies the awake/wait/sleep replacement scheme:
// REFER with and without topology maintenance, swept over node mobility,
// measuring QoS throughput. Without maintenance the embedding decays as
// overlay sensors drift out of their cells.
func ablationMaintenance(ctx context.Context, o Options) (Figure, error) {
	o = o.withDefaults()
	o.Systems = []string{SystemREFER, SystemREFERNoMaintenance}
	fig, err := mobilitySweep(ctx, o, func(r Result) float64 { return r.Throughput })
	fig.YLabel = "throughput (pkt/s)"
	return fig, err
}

// churnXs are the churn crash rates in crashes per second; at the paper's
// 200-sensor deployment the top rate cycles the whole population roughly
// every 17 virtual minutes.
var churnXs = []float64{0.02, 0.05, 0.1, 0.2}

// ablationChurn (A3) compares all four systems' delivery ratio under sustained
// Poisson churn (random sensors crashing at the swept rate, each down for
// 30 s), driven by the deterministic fault-injection subsystem instead of
// the paper's rotated faulty-node sets.
func ablationChurn(ctx context.Context, o Options) (Figure, error) {
	o = o.withDefaults()
	fig, err := sweep(ctx, o, churnXs, func(x float64, seed int64) RunConfig {
		return RunConfig{
			Scenario: scenario.Params{Seed: seed, Sensors: o.Sensors, MaxSpeed: 1},
			// One churn window spanning any run length; the injector's
			// stream is seeded per run so repetitions vary the victims.
			Chaos: &chaos.Schedule{
				Seed: seed,
				Events: []chaos.Event{{
					Kind:     chaos.Churn,
					Rate:     x,
					Duration: chaos.Duration(24 * time.Hour),
					Downtime: chaos.Duration(30 * time.Second),
				}},
			},
		}
	}, deliveryRatio)
	fig.XLabel = "churn rate (crashes/s)"
	fig.YLabel = "delivery ratio"
	return fig, err
}
