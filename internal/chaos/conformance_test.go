// Conformance suite: every evaluated system is run under every fault
// campaign with the invariant harness attached, checking after each fault
// action and at run end. The test lives in package chaos_test so it can
// build systems through the experiment registry without an import cycle
// (experiment imports chaos for the RunConfig knob).
package chaos_test

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"refer/internal/chaos"
	"refer/internal/experiment"
	"refer/internal/recovery"
	"refer/internal/scenario"
	"refer/internal/trace"
)

// Conformance run windows: traffic stops well before the run end so every
// injected packet resolves (retransmit budgets bound packet lifetimes) and
// the final liveness equality is meaningful.
const (
	confTrafficEnd = 150 * time.Second
	confRunEnd     = 220 * time.Second
)

// campaign is one fault campaign of a conformance matrix.
type campaign struct {
	name  string
	sched *chaos.Schedule
}

// campaigns loads one family of fault campaigns from
// testdata/campaigns/<family>/<name>.json, in name order. The world
// package's differential test runs the same files. Every transient event
// completes (including delayed recoveries) before confRunEnd.
func campaigns(t *testing.T, family string) []campaign {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "campaigns", family, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s campaigns: %v", family, err)
	}
	var cs []campaign
	for _, path := range paths {
		sched, err := chaos.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, campaign{strings.TrimSuffix(filepath.Base(path), ".json"), sched})
	}
	return cs
}

// TestConformance is the matrix: four systems × three fault campaigns
// (sustained churn with a lossy-link window; correlated regional failures
// plus a brownout; targeted kills of sensors and an actuator), zero
// invariant violations each. Run under -race in CI.
func TestConformance(t *testing.T) {
	cs := campaigns(t, "conformance")
	for _, sysName := range experiment.AllSystems() {
		for _, c := range cs {
			sysName, sched := sysName, c.sched
			t.Run(sysName+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				runConformance(t, sysName, sched)
			})
		}
	}
}

func runConformance(t *testing.T, sysName string, sched *chaos.Schedule) {
	t.Helper()
	// Constrained batteries so brownouts and depletion paths are real.
	w := scenario.Build(scenario.Params{Seed: 11, Sensors: 150, MaxSpeed: 1.5, SensorBattery: 10000})
	rec := trace.NewRecorder(64)
	w.SetTracer(rec)

	sys, err := experiment.NewSystem(sysName, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	checker, ok := sys.(chaos.Checker)
	if !ok {
		t.Fatalf("%s does not implement chaos.Checker", sysName)
	}

	inj, err := chaos.Attach(w, sched)
	if err != nil {
		t.Fatal(err)
	}
	h := chaos.NewHarness(w, checker)
	h.Observe(inj)

	// The paper's traffic shape: periodic bursts from random alive sensors.
	sensors := scenario.SensorIDs(w)
	var burst func()
	burst = func() {
		if w.Now() > confTrafficEnd {
			return
		}
		for i := 0; i < 5; i++ {
			src := sensors[w.Rand().Intn(len(sensors))]
			if !w.Node(src).Alive() {
				continue
			}
			sys.Inject(src, nil)
		}
		if _, err := w.Sched.After(10*time.Second, burst); err != nil {
			panic(err)
		}
	}
	if _, err := w.Sched.After(10*time.Second, burst); err != nil {
		t.Fatal(err)
	}

	w.Sched.RunUntil(confRunEnd)

	if violations := h.Final(); len(violations) != 0 {
		for i, v := range violations {
			if i == 10 {
				t.Errorf("... and %d more", len(violations)-10)
				break
			}
			t.Errorf("violation: %v", v)
		}
		t.FailNow()
	}
	if c := rec.Counts(); c.Injected == 0 {
		t.Fatal("degenerate run: no packets injected")
	}
	if st := inj.Stats(); st.Crashes == 0 || st.Recoveries == 0 {
		t.Fatalf("degenerate campaign: %+v", st)
	}
}

// TestConformanceRecovery grows the matrix with the recovery campaigns:
// churn plus *permanent* actuator kills, the structural damage only the
// recovery protocols can repair. kill-churn staggers its kills so each
// resolves by corner re-election; kill-merge concentrates them so some cell
// finds no eligible successor and must merge into a neighbor (CAN
// takeover). Every evaluated system runs each campaign on the lattice
// deployment, and
// systems implementing the recovery protocols (REFER) additionally run them
// with a recovery manager attached, the harness probing CheckInvariants
// after every individual recovery action. Run under -race in CI.
func TestConformanceRecovery(t *testing.T) {
	cs := campaigns(t, "recovery")
	for _, sysName := range experiment.AllSystems() {
		for _, c := range cs {
			sysName, sched := sysName, c.sched
			wantMerge := c.name == "kill-merge"
			t.Run(sysName+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				runRecoveryConformance(t, sysName, sched, wantMerge)
			})
		}
	}
}

func runRecoveryConformance(t *testing.T, sysName string, sched *chaos.Schedule, wantMerge bool) {
	t.Helper()
	// The 3×3 actuator lattice gives the kills surviving peers to promote
	// and neighbor cells to merge into; 400 sensors keep per-cell density at
	// paper level on the larger field.
	w := scenario.Build(scenario.Params{
		Seed: 11, Sensors: 400, MaxSpeed: 1.5, SensorBattery: 10000, ActuatorGrid: 3,
	})
	rec := trace.NewRecorder(64)
	w.SetTracer(rec)

	sys, err := experiment.NewSystem(sysName, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	checker, ok := sys.(chaos.Checker)
	if !ok {
		t.Fatalf("%s does not implement chaos.Checker", sysName)
	}

	inj, err := chaos.Attach(w, sched)
	if err != nil {
		t.Fatal(err)
	}
	h := chaos.NewHarness(w, checker)
	h.Observe(inj)

	// Systems that implement the repair protocols get a recovery manager;
	// the observer probes the full invariant set after every individual
	// recovery action — not just after injected faults.
	var mgr *recovery.Manager
	if rep, ok := sys.(recovery.Repairer); ok {
		mgr, err = recovery.Attach(w, rep, recovery.Spec{Enabled: true})
		if err != nil {
			t.Fatal(err)
		}
		mgr.SetObserver(func(a recovery.Action) {
			h.ProbeAfter("recovery:" + string(a.Kind))
		})
	}

	sensors := scenario.SensorIDs(w)
	var burst func()
	burst = func() {
		if w.Now() > confTrafficEnd {
			return
		}
		for i := 0; i < 5; i++ {
			src := sensors[w.Rand().Intn(len(sensors))]
			if !w.Node(src).Alive() {
				continue
			}
			sys.Inject(src, nil)
		}
		if _, err := w.Sched.After(10*time.Second, burst); err != nil {
			panic(err)
		}
	}
	if _, err := w.Sched.After(10*time.Second, burst); err != nil {
		t.Fatal(err)
	}

	w.Sched.RunUntil(confRunEnd)

	if violations := h.Final(); len(violations) != 0 {
		for i, v := range violations {
			if i == 10 {
				t.Errorf("... and %d more", len(violations)-10)
				break
			}
			t.Errorf("violation: %v", v)
		}
		t.FailNow()
	}
	if c := rec.Counts(); c.Injected == 0 {
		t.Fatal("degenerate run: no packets injected")
	}
	if st := inj.Stats(); st.ActuatorKills == 0 {
		t.Fatalf("degenerate campaign: %+v", st)
	}
	if mgr != nil {
		st := mgr.Stats()
		if st.Repairs() == 0 {
			t.Fatalf("recovery manager attached but no repairs fired: %+v", st)
		}
		if wantMerge && (st.Merges == 0 || st.Takeovers == 0) {
			t.Fatalf("concentrated-kill campaign never exercised merge/takeover: %+v", st)
		}
	}
}
