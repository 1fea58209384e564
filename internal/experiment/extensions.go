package experiment

import (
	"fmt"
	"time"

	"refer/internal/core"
	"refer/internal/scenario"
)

// degreeConfig is the E3 run: K(d,3) cells with d beyond the paper's 2 — its
// other stated future work — under x faulty sensors. K(3,3) gives every pair
// three disjoint paths instead of two, so the failover survives heavier fault
// loads, at the price of a larger embedding (33 overlay sensors per cell) and
// more maintenance. The deployment uses 400 sensors so both variants can form
// cells.
func degreeConfig(_ Options, x float64, seed int64) RunConfig {
	return RunConfig{
		Scenario:   scenario.Params{Seed: seed, Sensors: 400, MaxSpeed: 1},
		FaultCount: int(x),
	}
}

// InterCellResult summarizes the E4 inter-cell routing study: REFER's DHT
// tier carrying packets between cells (Section III-B-3 describes the
// mechanism; the paper's evaluation only exercises intra-cell traffic).
type InterCellResult struct {
	// Attempts and Delivered count cross-cell SendTo packets.
	Attempts, Delivered int
	// MeanDelay is the mean end-to-end latency of delivered packets.
	MeanDelay time.Duration
	// MeanCellHops is the mean number of cells a packet crossed.
	MeanCellHops float64
}

// ExtInterCell measures REFER's inter-cell routing: from every cell's
// farthest overlay sensor to an overlay node of every other cell, repeated
// per seed. Returns aggregate delivery and latency statistics.
func ExtInterCell(o Options) (InterCellResult, error) {
	o = o.withDefaults()
	var agg InterCellResult
	var totalDelay time.Duration
	var totalCellHops int
	for _, seed := range o.Seeds {
		w := scenario.Build(scenario.Params{Seed: seed, Sensors: o.Sensors, MaxSpeed: 1})
		sys := core.New(w, core.DefaultConfig())
		if err := sys.Build(); err != nil {
			return InterCellResult{}, fmt.Errorf("experiment: inter-cell study: %w", err)
		}
		// Let construction airtime drain.
		w.Sched.RunUntil(10 * time.Second)
		cells := sys.Cells()
		for _, from := range cells {
			for _, to := range cells {
				if from.CID == to.CID {
					continue
				}
				src, okSrc := from.Node("021")
				_, okDst := to.Node("010")
				if !okSrc || !okDst {
					continue
				}
				agg.Attempts++
				start := w.Now()
				route, _ := sys.DHTRoute(from.CID, to.CID)
				sys.SendTo(src, core.Address{CID: to.CID, KID: "010"}, func(ok bool) {
					if !ok {
						return
					}
					agg.Delivered++
					totalDelay += w.Now() - start
					totalCellHops += len(route) - 1
				})
				w.Sched.RunUntil(w.Now() + 5*time.Second)
			}
		}
	}
	if agg.Delivered > 0 {
		agg.MeanDelay = totalDelay / time.Duration(agg.Delivered)
		agg.MeanCellHops = float64(totalCellHops) / float64(agg.Delivered)
	}
	return agg, nil
}
