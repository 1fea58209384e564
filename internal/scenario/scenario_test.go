package scenario

import (
	"runtime"
	"testing"
	"time"

	"refer/internal/world"
)

func TestBuildDefaults(t *testing.T) {
	w := Build(Params{Seed: 1})
	if got := w.Len(); got != 205 {
		t.Fatalf("Len = %d, want 205 (5 actuators + 200 sensors)", got)
	}
	actuators, sensors := 0, 0
	for _, n := range w.Nodes() {
		switch n.Kind {
		case world.Actuator:
			actuators++
			if n.Range != 250 {
				t.Errorf("actuator range = %f", n.Range)
			}
		case world.Sensor:
			sensors++
			if n.Range != 100 {
				t.Errorf("sensor range = %f", n.Range)
			}
		}
	}
	if actuators != 5 || sensors != 200 {
		t.Fatalf("actuators=%d sensors=%d", actuators, sensors)
	}
}

func TestActuatorLayoutGeometry(t *testing.T) {
	layout := ActuatorLayout(500)
	if len(layout) != 5 {
		t.Fatalf("layout = %v", layout)
	}
	center := layout[4]
	if center.X != 250 || center.Y != 250 {
		t.Fatalf("center = %v", center)
	}
	// Every corner must be within actuator radio range (250) of the center
	// and of its ring neighbors, so triangulation succeeds.
	for i := 0; i < 4; i++ {
		if d := layout[i].Dist(center); d > 250 {
			t.Errorf("corner %d to center: %f m", i, d)
		}
		if d := layout[i].Dist(layout[(i+1)%4]); d > 250 {
			t.Errorf("corner %d to corner %d: %f m", i, (i+1)%4, d)
		}
	}
}

func TestSensorsDeployedNearActuators(t *testing.T) {
	w := Build(Params{Seed: 2})
	layout := ActuatorLayout(500)
	for _, id := range SensorIDs(w) {
		p := w.Position(id)
		near := false
		for _, a := range layout {
			if p.Dist(a) <= 141 {
				near = true
				break
			}
		}
		if !near {
			t.Fatalf("sensor %d at %v is not near any actuator", id, p)
		}
	}
}

func TestMobileSensorsStayInSensedRegion(t *testing.T) {
	w := Build(Params{Seed: 3, Sensors: 50, MaxSpeed: 5})
	region := SensedRegion(500)
	w.Sched.RunUntil(400 * time.Second)
	for _, id := range SensorIDs(w) {
		p := w.Position(id)
		// Initial placement may exceed the patrol region slightly; after
		// long mobility the node must be inside or heading inside: allow
		// the anchor-radius margin.
		if p.X < region.Min.X-141 || p.X > region.Max.X+141 ||
			p.Y < region.Min.Y-141 || p.Y > region.Max.Y+141 {
			t.Fatalf("sensor %d wandered to %v", id, p)
		}
	}
}

func TestDeterministicDeployment(t *testing.T) {
	w1 := Build(Params{Seed: 4, Sensors: 100, MaxSpeed: 2})
	w2 := Build(Params{Seed: 4, Sensors: 100, MaxSpeed: 2})
	w1.Sched.RunUntil(100 * time.Second)
	w2.Sched.RunUntil(100 * time.Second)
	for i := 0; i < w1.Len(); i++ {
		if w1.Position(world.NodeID(i)) != w2.Position(world.NodeID(i)) {
			t.Fatalf("node %d diverged", i)
		}
	}
}

func TestSeedChangesDeployment(t *testing.T) {
	w1 := Build(Params{Seed: 5, Sensors: 100})
	w2 := Build(Params{Seed: 6, Sensors: 100})
	same := 0
	for _, id := range SensorIDs(w1) {
		if w1.Position(id) == w2.Position(id) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("%d sensor positions identical across seeds", same)
	}
}

func TestSensorBatteryApplied(t *testing.T) {
	w := Build(Params{Seed: 7, Sensors: 10, SensorBattery: 50})
	id := SensorIDs(w)[0]
	if w.Node(id).Meter.Remaining() != 50 {
		t.Fatalf("battery = %f", w.Node(id).Meter.Remaining())
	}
}

// TestMoverFootprint bounds what a mobile sensor costs to build. A mover
// holds a seed, a draw count and an 8-leg look-ahead; it owns no generator
// state (a math/rand source alone is ≈ 5 KB).
func TestMoverFootprint(t *testing.T) {
	const sensors = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := Build(Params{Seed: 1, Sensors: sensors, MaxSpeed: 5})
	runtime.ReadMemStats(&after)
	perMover := float64(after.TotalAlloc-before.TotalAlloc) / sensors
	t.Logf("%.0f B allocated per mobile sensor", perMover)
	if perMover > 1200 {
		t.Fatalf("Build allocated %.0f B per mobile sensor, want ≤ 1200", perMover)
	}
	runtime.KeepAlive(w)
}
