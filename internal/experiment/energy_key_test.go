package experiment

import (
	"strings"
	"testing"
	"time"

	"refer/internal/energy"
	"refer/internal/scenario"
)

// The energy redesign must not move any existing content address: cached
// results and the refer-simd dedup map are keyed by these hashes, so a
// silently changed key would orphan every cache entry written before the
// change. The hex constants below were computed at the commit immediately
// preceding the energy API (verified byte-identical there) and pin the
// append-only canonicalization contract: a zero Energy spec encodes to
// nothing.
const (
	legacyRunKeySeed7  = "c7166834bd149d3e3badeda0be7d9ee46efab6c8c351c3934626b22e133c2ca8"
	legacyOptionsKey4  = "ea5bccb2e83c9037d2080f49e052571056f758903df20d106ee9193ffc6cd158"
	legacyRunKeyReplay = "9a113080d0fa30d883a3ab9c11023aaa3d1cebd8883d1d8365912cbcc9184e37"
)

func TestConfigKeyEnergyStability(t *testing.T) {
	k, err := ConfigKey(RunConfig{Scenario: scenario.Params{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if k != legacyRunKeySeed7 {
		t.Fatalf("zero-Energy run key moved:\n got %s\nwant %s", k, legacyRunKeySeed7)
	}
	k, err = ConfigKey(RunConfig{
		Scenario:   scenario.Params{Seed: 7, Sensors: 150, MaxSpeed: 2.5},
		Warmup:     100 * time.Second,
		Duration:   300 * time.Second,
		FaultCount: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if k != legacyRunKeyReplay {
		t.Fatalf("zero-Energy replay-config key moved:\n got %s\nwant %s", k, legacyRunKeyReplay)
	}

	ko, err := OptionsKey("4", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ko != legacyOptionsKey4 {
		t.Fatalf("zero-Energy options key moved:\n got %s\nwant %s", ko, legacyOptionsKey4)
	}
}

// TestConfigKeyEnergyPerturbation checks every energy selection lands in its
// own key: the three models differ from the legacy key and from each other,
// and parameter overrides within a model perturb the key too.
func TestConfigKeyEnergyPerturbation(t *testing.T) {
	keys := map[string]string{"legacy": legacyRunKeySeed7}
	for name, spec := range map[string]energy.Spec{
		"paper":        {Model: energy.ModelPaper},
		"radio":        {Model: energy.ModelRadio},
		"radio-tuned":  {Model: energy.ModelRadio, EElec: 100e-9},
		"harvesting":   {Model: energy.ModelHarvesting},
		"harvest-slow": {Model: energy.ModelHarvesting, PeriodS: 60},
		"big-packets":  {PacketBits: 16384},
	} {
		k, err := ConfigKey(RunConfig{Scenario: scenario.Params{Seed: 7}, Energy: spec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for other, ko := range keys {
			if k == ko {
				t.Errorf("energy spec %q collides with %q", name, other)
			}
		}
		keys[name] = k
	}

	if _, err := ConfigKey(RunConfig{Scenario: scenario.Params{Seed: 7}, Energy: energy.Spec{Model: "nope"}}); err == nil {
		t.Error("invalid energy spec produced a key")
	}
	// A custom in-process cost model has no canonical form; keying it would
	// collide with the default-model entry for the same scenario.
	if _, err := ConfigKey(RunConfig{
		Scenario: scenario.Params{Seed: 7, Energy: energy.DefaultRadioModel()},
	}); err == nil {
		t.Error("custom Scenario.Energy produced a key")
	}
	// Its sibling has none either: under the radio model it scales every
	// charge, so dropping it silently would collide two different results.
	if _, err := ConfigKey(RunConfig{
		Scenario: scenario.Params{Seed: 7, PacketBits: 16384},
		Energy:   energy.Spec{Model: energy.ModelRadio},
	}); err == nil || !strings.Contains(err.Error(), "RunConfig.Energy.PacketBits") {
		t.Errorf("Scenario.PacketBits: err = %v, want a refusal pointing at RunConfig.Energy.PacketBits", err)
	}

	ko, err := OptionsKey("4", Options{Energy: energy.Spec{Model: energy.ModelRadio}})
	if err != nil {
		t.Fatal(err)
	}
	if ko == legacyOptionsKey4 {
		t.Error("Options.Energy not part of the options key")
	}
}
