package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"refer/internal/chaos"
	"refer/internal/energy"
	"refer/internal/scenario"
	"refer/internal/trace"
)

// TestConfigKeyCanonicalization pins the content-address contract: spelling
// out the defaults hashes identically to omitting them, and every
// outcome-relevant field perturbs the key.
func TestConfigKeyCanonicalization(t *testing.T) {
	base := RunConfig{Scenario: scenario.Params{Seed: 7}}
	explicit := RunConfig{
		System: SystemREFER,
		Scenario: scenario.Params{
			Seed: 7, Sensors: 200, Side: 500, SensorRange: 100,
			ActuatorRange: 250, AnchorRadius: 140,
		},
		Warmup:           100 * time.Second,
		Duration:         1000 * time.Second,
		BurstInterval:    10 * time.Second,
		Sources:          5,
		PacketsPerSource: 6,
		PacketSpacing:    20 * time.Millisecond,
		FaultRotation:    10 * time.Second,
		QoSDeadline:      600 * time.Millisecond,
	}
	k1, err := ConfigKey(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ConfigKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("defaulted and explicit configs hash differently:\n%s\n%s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not hex SHA-256", k1)
	}

	// Every leaf of RunConfig either moves the key or is refused outright:
	// there is no input that changes a run and shares a content address.
	eachLeafPerturbed(t, base, func(path string, cfg RunConfig) {
		if k, err := ConfigKey(cfg); err == nil && k == k1 {
			t.Errorf("perturbing RunConfig%s changed neither the key nor its validity", path)
		}
	})
}

// leafStandIns are the non-zero values eachLeafPerturbed gives the leaves
// fillLeaves cannot invent: reference types, perturbed as nil versus set.
var leafStandIns = map[reflect.Type]any{
	reflect.TypeOf((*trace.Recorder)(nil)): trace.NewRecorder(1),
	reflect.TypeOf((*chaos.Schedule)(nil)): &chaos.Schedule{
		Seed:   1,
		Events: []chaos.Event{{Kind: chaos.Crash, At: chaos.Duration(time.Second)}},
	},
	reflect.TypeOf((*energy.CostModel)(nil)).Elem(): energy.DefaultRadioModel(),
	reflect.TypeOf([]int64(nil)):                    []int64{9},
	reflect.TypeOf([]string(nil)):                   []string{SystemDaTree},
	reflect.TypeOf((func(ProgressEvent))(nil)):      func(ProgressEvent) {},
}

// eachLeafPerturbed calls check once per exported leaf field under T, with a
// copy of base in which that one leaf was made non-zero.
func eachLeafPerturbed[T any](t *testing.T, base T, check func(path string, v T)) {
	t.Helper()
	var walk func(v reflect.Value, path string, visit func(string, reflect.Value))
	walk = func(v reflect.Value, path string, visit func(string, reflect.Value)) {
		if v.Kind() != reflect.Struct {
			visit(path, v)
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				walk(v.Field(i), path+"."+f.Name, visit)
			}
		}
	}
	var paths []string
	walk(reflect.ValueOf(&base).Elem(), "", func(path string, _ reflect.Value) { paths = append(paths, path) })
	for _, target := range paths {
		v := base
		walk(reflect.ValueOf(&v).Elem(), "", func(path string, leaf reflect.Value) {
			if path != target {
				return
			}
			if standIn, ok := leafStandIns[leaf.Type()]; ok {
				leaf.Set(reflect.ValueOf(standIn))
			} else {
				fillLeaves(t, leaf, path)
			}
		})
		if reflect.DeepEqual(v, base) {
			t.Fatalf("perturbing %s left the value unchanged", target)
		}
		check(target, v)
	}
}

func TestConfigKeyRejectsUnknownSystem(t *testing.T) {
	if _, err := ConfigKey(RunConfig{System: "not-a-system"}); err == nil {
		t.Fatal("no error for unknown system")
	}
}

func TestOptionsKey(t *testing.T) {
	k1, err := OptionsKey("4", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults spelled out → same key; Parallelism and Progress excluded.
	k2, err := OptionsKey("4", Options{
		Seeds:       []int64{1, 2, 3, 4, 5},
		Sensors:     200,
		Systems:     AllSystems(),
		Parallelism: 7,
		Progress:    func(ProgressEvent) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("defaulted and explicit options hash differently")
	}
	k3, err := OptionsKey("5", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("figure ID not part of the key")
	}
	// Every leaf of Options moves the key or is refused, on one figure per
	// grid, except the execution-only fields, which must not: they cannot
	// change the output. A leaf the grid forces (A1's Systems) may leave the
	// key alone only because it leaves the scheduled runs alone too.
	execOnly := map[string]bool{".Parallelism": true, ".Progress": true}
	scheduleOf := recordSchedules(t)
	walked := map[string]bool{}
	for _, spec := range Figures() {
		if walked[spec.Grid] {
			continue
		}
		walked[spec.Grid] = true
		id := spec.ID
		base, err := OptionsKey(id, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eachLeafPerturbed(t, Options{}, func(path string, o Options) {
			k, err := OptionsKey(id, o)
			switch {
			case execOnly[path]:
				if err != nil || k != base {
					t.Errorf("figure %s: execution-only Options%s moved the key (err %v)", id, path, err)
				}
			case err == nil && k == base && !reflect.DeepEqual(scheduleOf(id, o), scheduleOf(id, Options{})):
				t.Errorf("figure %s: perturbing Options%s changed the runs but neither the key nor its validity", id, path)
			}
		})
	}
	if _, err := OptionsKey("nope", Options{}); err == nil {
		t.Fatal("no error for unknown figure")
	}
}

// recordSchedules stubs run execution for the rest of the test and returns a
// function reporting the ordered ConfigKeys of the runs figure id's sweep
// schedules under o.
func recordSchedules(t *testing.T) func(id string, o Options) []string {
	t.Helper()
	var keys []string
	stubSweepRun(t, func(_ context.Context, cfg RunConfig) (Result, error) {
		k, err := ConfigKey(cfg)
		if err != nil {
			t.Errorf("a sweep scheduled a run without a key: %v", err)
		}
		keys = append(keys, k)
		return Result{}, nil
	})
	return func(id string, o Options) []string {
		t.Helper()
		keys = nil
		o.Parallelism = 1 // runs start, and so record, in schedule order
		o.Progress = nil
		if _, err := BuildTable(context.Background(), id, o); err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		return keys
	}
}

// TestKeysAddressTheSchedule pins key soundness as a property: two Options
// with equal OptionsKey — or equal TableKey, across the figures of a grid too
// — schedule the same ordered list of runs, so a cache hit can never serve a
// different experiment's figure. Each grid's own defaults (S-family arms,
// seeds and windows, L-family radio model, forced ablation arms) are resolved
// before hashing; when the builders applied them after the key was taken,
// S1–S5 collided on Systems and Seeds.
func TestKeysAddressTheSchedule(t *testing.T) {
	variants := []Options{
		{},
		{Systems: AllSystems()},
		{Seeds: []int64{1}},
		{Seeds: []int64{1, 2, 3, 4, 5}},
		{Warmup: 20 * time.Second, Duration: 60 * time.Second},
		{Energy: energy.Spec{Model: energy.ModelRadio}},
	}
	// keyOf turns a key function into one that cannot fail on these inputs.
	keyOf := func(f func(string, Options) (string, error)) func(string, Options) string {
		return func(id string, o Options) string {
			k, err := f(id, o)
			if err != nil {
				t.Fatal(err)
			}
			return k
		}
	}
	optionsKey, tableKey := keyOf(OptionsKey), keyOf(TableKey)
	scheduleOf := recordSchedules(t)
	byKey := map[string][]string{}
	for _, spec := range Figures() {
		for _, o := range variants {
			schedule := scheduleOf(spec.ID, o)
			for _, key := range []string{optionsKey(spec.ID, o), tableKey(spec.ID, o)} {
				if prev, ok := byKey[key]; ok && !reflect.DeepEqual(prev, schedule) {
					t.Errorf("figure %s: key %s addresses two different schedules (%d vs %d runs)",
						spec.ID, key[:12], len(prev), len(schedule))
				}
				byKey[key] = schedule
			}
		}
	}

	// The two collisions reproduced before the fix: 8·S runs in 2 series vs
	// 16·S in 4, and 3 runs vs 15.
	if optionsKey("S1", Options{}) == optionsKey("S1", Options{Systems: AllSystems()}) {
		t.Error("S1: the default arms and all four systems share an OptionsKey")
	}
	if optionsKey("S4", Options{}) == optionsKey("S4", Options{Seeds: []int64{1, 2, 3, 4, 5}}) {
		t.Error("S4: the default single seed and five seeds share an OptionsKey")
	}
	// And a grid's defaults spelled out are still the same address.
	if optionsKey("S4", Options{}) != optionsKey("S4", Options{Seeds: []int64{1}, Systems: []string{SystemREFER},
		Warmup: 20 * time.Second, Duration: 60 * time.Second}) {
		t.Error("S4: defaulted and explicit options hash differently")
	}
	if optionsKey("L1", Options{}) != optionsKey("L1", Options{Energy: energy.Spec{Model: energy.ModelRadio}}) {
		t.Error("L1: the default radio model spelled out hashes differently")
	}
	// Figures of one grid share the table's address, not the figure's.
	if tableKey("4", Options{}) == optionsKey("4", Options{}) ||
		tableKey("4", Options{}) != tableKey("5", Options{}) ||
		tableKey("4", Options{}) == tableKey("6", Options{}) {
		t.Error("TableKey must differ from figure 4's OptionsKey, be shared by figures 4 and 5, and not by 6")
	}
}

// TestKnownSystems pins the system registry helpers against NewSystem.
func TestKnownSystems(t *testing.T) {
	names := KnownSystems()
	if len(names) == 0 {
		t.Fatal("no known systems")
	}
	for _, name := range names {
		if !KnownSystem(name) {
			t.Errorf("KnownSystem(%q) = false", name)
		}
		w := scenario.Build(scenario.Params{Seed: 1, Sensors: 10})
		if _, err := NewSystem(name, w); err != nil {
			t.Errorf("NewSystem(%q): %v", name, err)
		}
	}
	// The removed names are the two same-output REFER arms: a route table and
	// a cell index are how REFER is computed, not systems to select.
	for _, name := range []string{"not-a-system", "REFER/linear-scan", "REFER/direct-routes"} {
		if KnownSystem(name) {
			t.Errorf("KnownSystem(%q) = true", name)
		}
	}
	if len(names) != 8 {
		t.Errorf("%d known systems, want 8: %v", len(names), names)
	}
	for _, name := range AllSystems() {
		if !KnownSystem(name) {
			t.Errorf("evaluated system %q missing from registry", name)
		}
	}
}

// TestRunObservedProgress exercises the observer plumbing: progress
// snapshots advance to the run's end and the result matches a plain
// RunContext of the same config.
func TestRunObservedProgress(t *testing.T) {
	cfg := RunConfig{
		Scenario: scenario.Params{Seed: 1, Sensors: 120},
		Warmup:   5 * time.Second,
		Duration: 10 * time.Second,
	}
	var snaps []RunProgress
	res, err := RunObserved(context.Background(), cfg, func(p RunProgress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	last := snaps[len(snaps)-1]
	if last.SimTime <= 0 || last.DESEvents != res.Stats.DESEvents || last.SimEnd != 17*time.Second {
		t.Fatalf("final snapshot: %+v", last)
	}
	if f := last.Fraction(); f <= 0 || f > 1 {
		t.Fatalf("fraction = %v", f)
	}
	// Replay determinism: observing a run does not change it.
	direct, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats = res.Stats.StripWallClock()
	direct.Stats = direct.Stats.StripWallClock()
	if res != direct {
		t.Fatalf("observed result diverged from direct run:\n%+v\n%+v", res, direct)
	}
}

// TestRunObservedCancel cancels from inside the first progress callback: the
// run stops within one DES batch and reports the context's error.
func TestRunObservedCancel(t *testing.T) {
	cfg := RunConfig{
		Scenario: scenario.Params{Seed: 1, Sensors: 200},
		Warmup:   500 * time.Second,
		Duration: 5000 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	_, err := RunObserved(ctx, cfg, func(RunProgress) {
		batches++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if batches != 1 {
		t.Fatalf("run executed %d batches after cancellation, want it to stop after the first", batches)
	}
}
