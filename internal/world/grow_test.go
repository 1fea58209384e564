package world_test

import (
	"testing"

	"refer/internal/scenario"
	"refer/internal/world"
)

// TestBuildPresizesWorld pins scenario.Build's World.Grow call: the node
// list and the position table are allocated at the deployment's size, not
// grown past it by appends.
func TestBuildPresizesWorld(t *testing.T) {
	for _, p := range []scenario.Params{
		{Seed: 1, Sensors: 200},
		{Seed: 2, Sensors: 1000, ActuatorGrid: 4, MaxSpeed: 1},
	} {
		w := scenario.Build(p)
		if kin, nodes := world.KinCap(w), cap(w.Nodes()); kin != w.Len() || nodes != w.Len() {
			t.Errorf("%+v: %d nodes in a table of %d rows and a node list of %d", p, w.Len(), kin, nodes)
		}
	}
}
