// The differential test of the spatial layer: whole runs on the production
// layer and on the brute-force twin (twin_test.go) must agree event for
// event. It lives in package world_test so it can drive the evaluated
// systems through the experiment harness.
package world_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"refer/internal/chaos"
	"refer/internal/core"
	"refer/internal/energy"
	"refer/internal/experiment"
	"refer/internal/recovery"
	"refer/internal/scenario"
	"refer/internal/trace"
	"refer/internal/world"
)

// outcome is what a run shows of the model: its Result with the host and
// work counters zeroed, since only those may differ between layers, and its
// every traced event.
type outcome struct {
	res    experiment.Result
	events []trace.Event
	err    string
}

func tracedRun(cfg experiment.RunConfig) outcome {
	rec := trace.NewRecorder(1)
	cfg.Trace = rec
	res, err := experiment.Run(cfg)
	res.Stats.HostStats, res.Stats.WorkStats = experiment.HostStats{}, experiment.WorkStats{}
	o := outcome{res: res, events: rec.Events()}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// onTwin runs f with New building worlds on the twin.
func onTwin[T any](f func() T) T {
	defer world.UseTwin()()
	return f()
}

// shape is one named run of the differential.
type shape struct {
	name string
	cfg  experiment.RunConfig
}

// runAll runs every shape on the current layer, GOMAXPROCS at a time.
func runAll(shapes []shape) []outcome {
	out := make([]outcome, len(shapes))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = tracedRun(shapes[i].cfg)
			}
		}()
	}
	for i := range shapes {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// requireTwinAgrees runs the shapes on both layers and requires identical
// outcomes. It returns how many shapes built (sparse deployments can fail
// REFER's embedding, identically on both layers).
func requireTwinAgrees(t *testing.T, shapes ...shape) (built int) {
	t.Helper()
	grids := runAll(shapes)
	twins := onTwin(func() []outcome { return runAll(shapes) })
	for k, s := range shapes {
		grid, twin := grids[k], twins[k]
		if grid.err != twin.err {
			t.Fatalf("%s: error %q on the grid layer, %q on the twin", s.name, grid.err, twin.err)
		}
		if !reflect.DeepEqual(grid.res, twin.res) {
			t.Fatalf("%s: results differ\ngrid %+v\ntwin %+v", s.name, grid.res, twin.res)
		}
		if i := firstDiff(grid.events, twin.events); i >= 0 {
			t.Fatalf("%s: trace streams differ from event %d of %d/%d: grid %s, twin %s",
				s.name, i, len(grid.events), len(twin.events), eventAt(grid.events, i), eventAt(twin.events, i))
		}
		if grid.err == "" {
			built++
		}
	}
	return built
}

func firstDiff(a, b []trace.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func eventAt(events []trace.Event, i int) string {
	if i < len(events) {
		return fmt.Sprintf("%+v", events[i])
	}
	return "none"
}

// TestTwinAgreesOnGoldenShapes runs every trace-golden and work-golden
// shape of internal/experiment on both layers, with the production layer's
// reclaimed neighbor lists poisoned.
func TestTwinAgreesOnGoldenShapes(t *testing.T) {
	defer world.PoisonArena()()
	shapes := []shape{
		{"refer_faults", experiment.RunConfig{
			System:   experiment.SystemREFERRecovery,
			Scenario: scenario.Params{Seed: 2, Sensors: 400, ActuatorGrid: 3},
			Warmup:   10 * time.Second, Duration: 50 * time.Second,
			FaultCount: 20, Sources: 10,
			Chaos: &chaos.Schedule{Seed: 5, Events: []chaos.Event{
				{Kind: chaos.Churn, Rate: 0.3, Duration: chaos.Duration(24 * time.Hour), Downtime: chaos.Duration(30 * time.Second)},
				{Kind: chaos.ActuatorKill, At: chaos.Duration(25 * time.Second), Node: 1},
			}},
		}},
		{"refer_mobile", experiment.RunConfig{
			System:   experiment.SystemREFER,
			Scenario: scenario.Params{Seed: 3, Sensors: 200, MaxSpeed: 5},
			Warmup:   10 * time.Second, Duration: 50 * time.Second,
			FaultCount: 10,
		}},
		{"refer_k33", experiment.RunConfig{
			System:   experiment.SystemREFERK33,
			Scenario: scenario.Params{Seed: 1, Sensors: 400, MaxSpeed: 3},
			Warmup:   10 * time.Second, Duration: 50 * time.Second,
			FaultCount: 20,
		}},
		{"refer_heavy", experiment.RunConfig{
			System:   experiment.SystemREFER,
			Scenario: scenario.Params{Seed: 6, Sensors: 1000, ActuatorGrid: 4, MaxSpeed: 5},
			Warmup:   5 * time.Second, Duration: 15 * time.Second,
			Sources: 16, BurstInterval: time.Second,
		}},
		{"refer_growth", experiment.RunConfig{
			System:   experiment.SystemREFER,
			Scenario: scenario.Params{Seed: 7, Sensors: 1000, ActuatorGrid: 4, MaxSpeed: 1},
			Energy:   energy.Spec{Model: energy.ModelRadio},
			Warmup:   5 * time.Second, Duration: 10 * time.Second,
			Sources: 50,
		}},
		{"baselines/DaTree", baselineShape(experiment.SystemDaTree)},
		{"baselines/D-DEAR", baselineShape(experiment.SystemDDEAR)},
		{"baselines/Kautz-overlay", baselineShape(experiment.SystemKautzOverlay)},
	}
	if built := requireTwinAgrees(t, shapes...); built != len(shapes) {
		t.Fatalf("%d of %d golden shapes built", built, len(shapes))
	}
}

func baselineShape(system string) experiment.RunConfig {
	return experiment.RunConfig{
		System:   system,
		Scenario: scenario.Params{Seed: 4, Sensors: 200, MaxSpeed: 3},
		Warmup:   10 * time.Second, Duration: 40 * time.Second,
		FaultCount: 10,
	}
}

// sendToCampaign is the sendto golden: 300 core.SendTo packets between
// random sensors and random REFER addresses, with a tenth of the sensors
// failed. It returns everything the campaign shows of the model.
func sendToCampaign(t *testing.T) string {
	w := scenario.Build(scenario.Params{Seed: 12, Sensors: 200})
	rec := trace.NewRecorder(1)
	w.SetTracer(rec)
	s := core.New(w, core.DefaultConfig())
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	sensors := scenario.SensorIDs(w)
	for i := 0; i < len(sensors)/10; i++ {
		w.SetFailed(sensors[rng.Intn(len(sensors))], true)
	}
	kids := s.Graph().Nodes()
	var outcomes []bool
	for i := 0; i < 300; i++ {
		src := sensors[rng.Intn(len(sensors))]
		dst := core.Address{CID: s.Cells()[rng.Intn(len(s.Cells()))].CID, KID: kids[rng.Intn(len(kids))]}
		if _, err := w.Sched.At(w.Now()+time.Duration(i)*30*time.Millisecond, func() {
			s.SendTo(src, dst, func(ok bool) { outcomes = append(outcomes, ok) })
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Sched.RunUntil(w.Now() + 20*time.Second)
	ws := w.Stats()
	ws.GridRebuilds, ws.NeighborRebuilds, ws.NeighborHits, ws.MobilityEvals, ws.NeighborCandidates = 0, 0, 0, 0, 0
	return fmt.Sprintf("%v\n%+v\n%+v\n%+v\n%x %x %d\n%+v", outcomes, rec.Events(), rec.Counts(), s.Stats(),
		math.Float64bits(w.TotalEnergy(energy.Communication)), math.Float64bits(w.TotalEnergy(energy.Construction)),
		w.Sched.Fired(), ws)
}

// TestTwinAgreesOnSendTo runs the sendto golden campaign on both layers.
func TestTwinAgreesOnSendTo(t *testing.T) {
	if grid, twin := sendToCampaign(t), onTwin(func() string { return sendToCampaign(t) }); grid != twin {
		t.Fatalf("the SendTo campaign differs between layers:\ngrid %.2000s\ntwin %.2000s", grid, twin)
	}
}

// loadCampaign reads one fault campaign of the chaos conformance suite.
func loadCampaign(t *testing.T, family, name string) *chaos.Schedule {
	t.Helper()
	sched, err := chaos.Load(filepath.Join("..", "..", "testdata", "campaigns", family, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestTwinAgreesOnConformanceCampaigns runs the chaos conformance matrix on
// both layers: the four systems under each fault campaign on the
// conformance deployment, and on the lattice under each recovery campaign,
// with the recovery protocols attached where the system has them.
func TestTwinAgreesOnConformanceCampaigns(t *testing.T) {
	var shapes []shape
	for _, family := range []struct {
		name      string
		campaigns []string
		scenario  scenario.Params
		recovery  recovery.Spec
	}{
		{"conformance", []string{"blackout", "churn", "kill"},
			scenario.Params{Seed: 11, Sensors: 150, MaxSpeed: 1.5, SensorBattery: 10000}, recovery.Spec{}},
		{"recovery", []string{"kill-churn", "kill-merge"},
			scenario.Params{Seed: 11, Sensors: 400, MaxSpeed: 1.5, SensorBattery: 10000, ActuatorGrid: 3}, recovery.Spec{Enabled: true}},
	} {
		for _, name := range family.campaigns {
			sched := loadCampaign(t, family.name, name)
			for _, sys := range experiment.AllSystems() {
				shapes = append(shapes, shape{family.name + "/" + name + "/" + sys, experiment.RunConfig{
					System: sys, Scenario: family.scenario, Chaos: sched, Recovery: family.recovery,
					Warmup: 10 * time.Second, Duration: 140 * time.Second,
				}})
			}
		}
	}
	if built := requireTwinAgrees(t, shapes...); built != len(shapes) {
		t.Fatalf("%d of %d conformance shapes built", built, len(shapes))
	}
}

// TestTwinAgreesOnStaticWorlds runs every system on a static deployment
// with rotating faults. No cache entry there expires by clock, so a caller
// that mutates or keeps a borrowed neighbor slice changes what every later
// query of that node reads on the grid layer, and not on the twin.
func TestTwinAgreesOnStaticWorlds(t *testing.T) {
	var shapes []shape
	for _, sys := range append(experiment.AllSystems(), experiment.SystemREFERRecovery) {
		shapes = append(shapes, shape{"static/" + sys, experiment.RunConfig{
			System:   sys,
			Scenario: scenario.Params{Seed: 8, Sensors: 400, ActuatorGrid: 3},
			Warmup:   10 * time.Second, Duration: 60 * time.Second,
			FaultCount: 15,
		}})
	}
	if built := requireTwinAgrees(t, shapes...); built != len(shapes) {
		t.Fatalf("%d of %d static shapes built", built, len(shapes))
	}
}

// FuzzSpaceTwin runs random shapes on both layers: every system, recovery
// on the lattice, mobility up to 5 m/s, each fault campaign or none, and
// the flat or the distance-dependent energy model. The production layer's
// reclaimed neighbor lists are poisoned.
func FuzzSpaceTwin(f *testing.F) {
	defer world.PoisonArena()()
	// mix picks the system, then the campaign (×5), then the energy model
	// (×30).
	f.Add(int64(1), uint8(60), uint8(0))
	f.Add(int64(2), uint8(10), uint8(1+5*1))
	f.Add(int64(3), uint8(200), uint8(2+5*2+30))
	f.Add(int64(4), uint8(0), uint8(3+5*3))
	f.Add(int64(5), uint8(120), uint8(4+5*4+30))
	f.Add(int64(6), uint8(30), uint8(4+5*5))
	f.Add(int64(7), uint8(90), uint8(1+5*4+30))
	f.Fuzz(func(t *testing.T, seed int64, sensors, mix uint8) {
		systems := append(experiment.AllSystems(), experiment.SystemREFERRecovery)
		campaigns := [][2]string{{}, {"conformance", "churn"}, {"conformance", "blackout"}, {"conformance", "kill"},
			{"recovery", "kill-churn"}, {"recovery", "kill-merge"}}
		cfg := experiment.RunConfig{
			System:   systems[int(mix)%len(systems)],
			Scenario: scenario.Params{Seed: seed, Sensors: 140 + int(sensors), MaxSpeed: float64(seed&0xff%6) * 5 / 6},
			Warmup:   5 * time.Second, Duration: 60 * time.Second,
			FaultCount: int(sensors) % 11,
		}
		c := campaigns[int(mix)/len(systems)%len(campaigns)]
		if c[0] != "" {
			cfg.Chaos = loadCampaign(t, c[0], c[1])
		}
		if c[0] == "recovery" || cfg.System == experiment.SystemREFERRecovery {
			cfg.Scenario.ActuatorGrid = 3
		}
		if int(mix)/(len(systems)*len(campaigns))%2 == 1 {
			cfg.Energy = energy.Spec{Model: energy.ModelRadio}
		}
		requireTwinAgrees(t, shape{fmt.Sprintf("%+v", cfg), cfg})
	})
}

// TestTwinIsBruteForce pins the twin itself on a small world: its answers
// are fresh slices, by Dist alone, in the shared order.
func TestTwinIsBruteForce(t *testing.T) {
	build := func() *world.World { return scenario.Build(scenario.Params{Seed: 5, Sensors: 60, MaxSpeed: 2}) }
	grid := build()
	twin := onTwin(build)
	for _, w := range []*world.World{grid, twin} {
		w.Sched.RunUntil(3 * time.Second)
	}
	for id := range world.NodeID(grid.Len()) {
		a, b := grid.Neighbors(nil, id), twin.Neighbors(nil, id)
		if !slices.Equal(a, b) {
			t.Fatalf("node %d: grid lists %v, twin %v", id, a, b)
		}
		if c := twin.Neighbors(nil, id); len(c) > 0 && &c[0] == &b[0] {
			t.Fatalf("node %d: the twin handed out the same slice twice", id)
		}
		if grid.Position(id) != twin.Position(id) || grid.NearestActuator(id) != twin.NearestActuator(id) {
			t.Fatalf("node %d: positions %v/%v, nearest actuators %d/%d", id,
				grid.Position(id), twin.Position(id), grid.NearestActuator(id), twin.NearestActuator(id))
		}
	}
}
