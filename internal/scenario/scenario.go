// Package scenario constructs the evaluation's deployment (Section IV):
// five actuators in a 500 m × 500 m field whose triangulation yields four
// REFER cells, and N sensors i.i.d. deployed around the actuators, moving
// by random waypoint. All systems under comparison are built on worlds from
// this package so the comparison is apples-to-apples.
package scenario

import (
	"math/rand"
	"time"

	"refer/internal/energy"
	"refer/internal/geo"
	"refer/internal/mobility"
	"refer/internal/world"
)

// Params configures a deployment.
type Params struct {
	// Seed drives deployment and all in-world randomness.
	Seed int64
	// Sensors is the sensor population (paper default 200).
	Sensors int
	// MaxSpeed is the random-waypoint speed cap in m/s (speed is uniform in
	// [0, MaxSpeed]; the paper sweeps the cap from 1 to 5).
	MaxSpeed float64
	// Side is the square field's side length in meters (default 500).
	Side float64
	// SensorRange and ActuatorRange are the radio ranges in meters
	// (defaults 100 and 250, Section IV).
	SensorRange   float64
	ActuatorRange float64
	// AnchorRadius is how far around its anchor actuator each sensor is
	// deployed ("i.i.d distributed around the actuators"); default 140 m.
	AnchorRadius float64
	// SensorBattery is the per-sensor energy budget (<= 0: unconstrained,
	// the evaluation's setting — energy is a metric, not a constraint).
	SensorBattery float64
	// HopJitter overrides the world's MAC jitter when > 0.
	HopJitter time.Duration
	// ActuatorGrid, when >= 2, replaces the paper's five-actuator layout
	// with an n×n actuator lattice at GridSpacing intervals — the many-cell
	// deployment of the scale study. Triangulating the lattice yields
	// 2(n-1)² cells; the default spacing keeps every triangle edge (the
	// 212 m diagonal included) within the 250 m actuator radio range. Zero
	// keeps the paper layout.
	ActuatorGrid int
	// GridSpacing is the lattice pitch in meters (default 150; only used
	// when ActuatorGrid >= 2).
	GridSpacing float64
	// Energy overrides the world's per-packet cost model when non-nil; nil
	// keeps the world default (the paper's flat constants). Excluded from
	// serialization: runs driven through experiment.RunConfig describe
	// models with the canonical energy.Spec instead, so the pre-existing
	// canonical config encoding is unchanged.
	Energy energy.CostModel `json:"-"`
	// PacketBits overrides the charged packet size when > 0 (same
	// serialization caveat as Energy).
	PacketBits int `json:"-"`
}

// Defaults fills zero fields with the paper's values.
func (p Params) Defaults() Params {
	if p.Sensors == 0 {
		p.Sensors = 200
	}
	if p.GridSpacing == 0 {
		p.GridSpacing = 150
	}
	if p.Side == 0 {
		if p.ActuatorGrid >= 2 {
			// Lattice extent plus a 150 m border on each side.
			p.Side = float64(p.ActuatorGrid-1)*p.GridSpacing + 300
		} else {
			p.Side = 500
		}
	}
	if p.SensorRange == 0 {
		p.SensorRange = 100
	}
	if p.ActuatorRange == 0 {
		p.ActuatorRange = 250
	}
	if p.AnchorRadius == 0 {
		p.AnchorRadius = 140
	}
	return p
}

// ActuatorLayout returns the five actuator positions for a field of the
// given side: four at the inner corners plus one center, the layout whose
// triangulation produces the paper's four cells while keeping every
// triangle edge within actuator radio range.
func ActuatorLayout(side float64) []geo.Point {
	inset := side * 0.3
	return []geo.Point{
		{X: inset, Y: inset},
		{X: side - inset, Y: inset},
		{X: side - inset, Y: side - inset},
		{X: inset, Y: side - inset},
		{X: side / 2, Y: side / 2},
	}
}

// GridLayout returns the n×n actuator lattice for the scale scenario,
// centered in a field of the given side, in row-major order.
func GridLayout(n int, spacing, side float64) []geo.Point {
	inset := (side - float64(n-1)*spacing) / 2
	out := make([]geo.Point, 0, n*n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			out = append(out, geo.Point{
				X: inset + float64(col)*spacing,
				Y: inset + float64(row)*spacing,
			})
		}
	}
	return out
}

// Build creates the world: actuators (static, mains-powered) then sensors
// (random-waypoint movers anchored near random actuators).
func Build(p Params) *world.World {
	p = p.Defaults()
	cfg := world.DefaultConfig()
	cfg.Region = geo.Square(p.Side)
	cfg.Seed = p.Seed
	if p.HopJitter > 0 {
		cfg.HopJitter = p.HopJitter
	}
	if p.Energy != nil {
		cfg.Energy = p.Energy
	}
	if p.PacketBits > 0 {
		cfg.PacketBits = p.PacketBits
	}
	w := world.New(cfg)
	layout := ActuatorLayout(p.Side)
	if p.ActuatorGrid >= 2 {
		layout = GridLayout(p.ActuatorGrid, p.GridSpacing, p.Side)
	}
	for _, pos := range layout {
		w.AddNode(world.Actuator, mobility.Static{P: pos}, p.ActuatorRange, 0)
	}
	// Sensors patrol the sensed region — the area the cells cover plus a
	// margin — rather than the whole field, mirroring the paper's premise
	// that the Kautz cells "seamlessly cover the sensed region".
	patrol := SensedRegion(p.Side)
	if p.ActuatorGrid >= 2 {
		// Lattice bounding box plus the same 50 m margin.
		lo, hi := layout[0], layout[len(layout)-1]
		patrol = geo.Rect{
			Min: geo.Point{X: lo.X - 50, Y: lo.Y - 50},
			Max: geo.Point{X: hi.X + 50, Y: hi.Y + 50},
		}
	}
	// Deployment RNG is separate from the world RNG so protocol randomness
	// does not perturb node placement across configurations.
	rng := rand.New(rand.NewSource(p.Seed + 1))
	// Motion seeds come from a third stream so placement draws do not
	// depend on how many movers precede a sensor.
	motionSeeds := rand.New(rand.NewSource(p.Seed + 2))
	var draws *mobility.Draws
	if p.MaxSpeed > 0 {
		draws = mobility.NewDraws()
	}
	for i := 0; i < p.Sensors; i++ {
		anchor := layout[rng.Intn(len(layout))]
		pos := cfg.Region.RandomPointNear(rng, anchor, p.AnchorRadius)
		var mob mobility.Model
		if p.MaxSpeed > 0 {
			// Each mover draws from its own seed's stream: waypoint
			// itineraries extend lazily on position sampling, so a shared
			// stream would make every node's motion depend on the order the
			// simulator happens to sample positions in — including
			// map-iteration order — and break seeded replay. The movers
			// replay their streams on one scratch generator per world.
			mob = mobility.NewWaypoint(patrol, pos, p.MaxSpeed, motionSeeds.Int63(), draws)
		} else {
			mob = mobility.Static{P: pos}
		}
		w.AddNode(world.Sensor, mob, p.SensorRange, p.SensorBattery)
	}
	return w
}

// SensedRegion returns the patrol area of the sensors: the cell-covered
// square expanded by a 50 m margin.
func SensedRegion(side float64) geo.Rect {
	inset := side*0.3 - 50
	if inset < 0 {
		inset = 0
	}
	return geo.Rect{
		Min: geo.Point{X: inset, Y: inset},
		Max: geo.Point{X: side - inset, Y: side - inset},
	}
}

// SensorIDs returns the IDs of all sensors in a world built by Build.
func SensorIDs(w *world.World) []world.NodeID {
	var out []world.NodeID
	for _, n := range w.Nodes() {
		if n.Kind == world.Sensor {
			out = append(out, n.ID)
		}
	}
	return out
}
