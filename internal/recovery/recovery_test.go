package recovery

import (
	"reflect"
	"testing"
	"time"

	"refer/internal/world"
)

// fakeRepairer scripts the protocol side: sweep i returns script[i] (nothing
// once the script runs out) and records when, and with which grace, it ran.
type fakeRepairer struct {
	w      *world.World
	script [][]Action
	at     []time.Duration
	grace  []time.Duration
}

func (f *fakeRepairer) RecoverSweep(grace time.Duration) []Action {
	i := len(f.at)
	f.at = append(f.at, f.w.Now())
	f.grace = append(f.grace, grace)
	if i < len(f.script) {
		return f.script[i]
	}
	return nil
}

func TestAttachRejectsDisabledAndInvalidSpecs(t *testing.T) {
	w := world.New(world.Config{})
	for name, spec := range map[string]Spec{
		"zero":              {},
		"disabled":          {GraceS: 1, CheckIntervalS: 1},
		"negative grace":    {Enabled: true, GraceS: -1},
		"negative interval": {Enabled: true, CheckIntervalS: -1},
	} {
		if m, err := Attach(w, &fakeRepairer{w: w}, spec); err == nil || m != nil {
			t.Errorf("%s: Attach = (%v, %v), want an error", name, m, err)
		}
	}
	if w.Sched.Pending() != 0 {
		t.Fatalf("a rejected Attach left %d events scheduled", w.Sched.Pending())
	}
}

// TestManagerTicksOnVirtualTime pins the detection loop: one sweep every
// CheckInterval of virtual time, none at attach time, each handed the spec's
// grace — with the defaults and with both overridden.
func TestManagerTicksOnVirtualTime(t *testing.T) {
	for name, spec := range map[string]Spec{
		"defaults":   {Enabled: true},
		"overridden": {Enabled: true, GraceS: 1.5, CheckIntervalS: 0.25},
	} {
		w := world.New(world.Config{})
		rep := &fakeRepairer{w: w}
		m, err := Attach(w, rep, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		every := spec.CheckInterval()
		w.Sched.RunUntil(4*every + every/2)
		var want []time.Duration
		for i := 1; i <= 4; i++ {
			want = append(want, time.Duration(i)*every)
		}
		if !reflect.DeepEqual(rep.at, want) {
			t.Errorf("%s: sweeps at %v, want %v", name, rep.at, want)
		}
		for _, g := range rep.grace {
			if g != spec.Grace() {
				t.Errorf("%s: sweep got grace %v, want %v", name, g, spec.Grace())
			}
		}
		if got := m.Stats(); got != (Stats{Sweeps: 4}) {
			t.Errorf("%s: stats %+v, want 4 idle sweeps", name, got)
		}
	}
	if (Spec{Enabled: true}).Grace() != DefaultGrace || (Spec{Enabled: true}).CheckInterval() != DefaultCheckInterval {
		t.Error("zero grace/interval do not select the defaults")
	}
}

// TestManagerCountsAndObserves pins the bookkeeping of a sweep: one count per
// action kind, latency from re-elections and merges but not from takeovers
// (they complete in their merge's instant), and an observer called once per
// action, in order, that sees the stats as of its own action — the sweep and
// every action up to and including this one counted, later ones not yet.
func TestManagerCountsAndObserves(t *testing.T) {
	w := world.New(world.Config{})
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	actions := []Action{
		{Kind: Reelect, CID: 0, Corner: 1, DetectedAt: sec(1), RepairedAt: sec(4)},
		{Kind: Merge, CID: 2, AbsorberCID: 1, DetectedAt: sec(2), RepairedAt: sec(9)},
		{Kind: Takeover, CID: 2, AbsorberCID: 1, DetectedAt: sec(2), RepairedAt: sec(9)},
		{Kind: Reelect, CID: 3, Corner: 0, DetectedAt: sec(5), RepairedAt: sec(6)},
	}
	m, err := Attach(w, &fakeRepairer{w: w, script: [][]Action{nil, actions}}, Spec{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	var seen []Action
	var during []Stats
	m.SetObserver(func(a Action) {
		seen = append(seen, a)
		during = append(during, m.Stats())
	})

	if got := m.Sweep(); len(got) != 0 || len(seen) != 0 {
		t.Fatalf("idle sweep returned %v and observed %v", got, seen)
	}
	if got := m.Sweep(); !reflect.DeepEqual(got, actions) {
		t.Fatalf("Sweep returned %v, want the repairer's actions", got)
	}
	if !reflect.DeepEqual(seen, actions) {
		t.Fatalf("observer saw %v, want every action once, in order", seen)
	}
	wantDuring := []Stats{
		{Sweeps: 2, Reelections: 1, LatencyNs: int64(sec(3))},
		{Sweeps: 2, Reelections: 1, Merges: 1, LatencyNs: int64(sec(10))},
		{Sweeps: 2, Reelections: 1, Merges: 1, Takeovers: 1, LatencyNs: int64(sec(10))},
		{Sweeps: 2, Reelections: 2, Merges: 1, Takeovers: 1, LatencyNs: int64(sec(11))},
	}
	if !reflect.DeepEqual(during, wantDuring) {
		t.Fatalf("stats seen by the observer:\n%+v\nwant\n%+v", during, wantDuring)
	}
	final := m.Stats()
	if final != wantDuring[3] {
		t.Fatalf("final stats %+v, want %+v", final, wantDuring[3])
	}
	if final.Repairs() != 3 || final.MeanLatency() != sec(11)/3 {
		t.Fatalf("Repairs %d, MeanLatency %v", final.Repairs(), final.MeanLatency())
	}
}
