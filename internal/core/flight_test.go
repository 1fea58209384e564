package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"refer/internal/metrics"
	"refer/internal/scenario"
	"refer/internal/trace"
	"refer/internal/world"
)

// faultedLattice builds REFER on the static 3×3 lattice — the refer_faults
// deployment — with maintenance off (so the event queue drains) and 20
// random sensors failed, and returns it with its alive sensors. The tracer
// keeps only the first packet's events, so its counters stay exact without
// the event log growing.
func faultedLattice(t *testing.T) (*world.World, *System, []world.NodeID) {
	t.Helper()
	w := scenario.Build(scenario.Params{Seed: 2, Sensors: 400, ActuatorGrid: 3})
	w.SetTracer(trace.NewRecorder(1 << 30))
	cfg := DefaultConfig()
	cfg.DisableMaintenance = true
	s := New(w, cfg)
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	w.Sched.Run() // construction floods
	sensors := scenario.SensorIDs(w)
	rng := rand.New(rand.NewSource(7))
	for failed := 0; failed < 20; {
		if id := sensors[rng.Intn(len(sensors))]; w.Node(id).Alive() {
			w.SetFailed(id, true)
			failed++
		}
	}
	alive := sensors[:0:0]
	for _, id := range sensors {
		if w.Node(id).Alive() {
			alive = append(alive, id)
		}
	}
	return w, s, alive
}

// TestInjectSteadyStateAllocFree pins the tentpole: once the flight, sendOp
// and DES event pools are warm, injecting a packet and running it to its
// actuator — entry selection, corner ranking, table lookups, failover,
// two-stage relayed links, completions — allocates nothing, from any source.
// The same holds for a same-cell SendTo.
func TestInjectSteadyStateAllocFree(t *testing.T) {
	w, s, sources := faultedLattice(t)
	delivered, dropped := 0, 0
	done := func(ok bool) {
		if ok {
			delivered++
		} else {
			dropped++
		}
	}
	injectAll := func() {
		for _, src := range sources {
			s.Inject(src, done)
			w.Sched.Run()
		}
	}
	injectAll() // warm every source's neighbor cache and the pools
	counts := w.Tracer().Counts()
	if s.Stats().FailoverSwitches == 0 || counts.RadioDelivered <= counts.Hops || delivered == 0 || dropped == 0 {
		t.Fatalf("campaign too tame to guard the whole path: %d failover switches, %d delivered sends for %d hops (no relayed link), %d delivered, %d dropped",
			s.Stats().FailoverSwitches, counts.RadioDelivered, counts.Hops, delivered, dropped)
	}
	if allocs := testing.AllocsPerRun(1, injectAll); allocs != 0 {
		t.Fatalf("%d injections allocated %.0f times in steady state, want 0", len(sources), allocs)
	}

	c := s.Cells()[0]
	sendAll := func() {
		for _, kid := range c.sortedKIDs() {
			for _, src := range []world.NodeID{c.NodeByKID["010"], c.NodeByKID["121"]} {
				s.SendTo(src, Address{CID: c.CID, KID: kid}, done)
				w.Sched.Run()
			}
		}
	}
	sendAll()
	if allocs := testing.AllocsPerRun(1, sendAll); allocs != 0 {
		t.Fatalf("same-cell SendTo campaign allocated %.0f times in steady state, want 0", allocs)
	}
}

// TestInjectNilDoneAllocFree is the shape experiment.Run drives: a nil done
// and the run's collector counting on the world. The packet lifecycle adds
// no allocation to the warm forwarding path.
func TestInjectNilDoneAllocFree(t *testing.T) {
	w, s, sources := faultedLattice(t)
	col := metrics.NewCollector(0, time.Hour, 0)
	w.SetCollector(col)
	injectAll := func() {
		for _, src := range sources {
			s.Inject(src, nil)
			w.Sched.Run()
		}
	}
	injectAll()
	if allocs := testing.AllocsPerRun(1, injectAll); allocs != 0 {
		t.Fatalf("%d nil-done injections allocated %.0f times in steady state, want 0", len(sources), allocs)
	}
	created, delivered, _, dropped := col.Counts()
	if created != 3*len(sources) || delivered+dropped != created || delivered == 0 || dropped == 0 {
		t.Fatalf("collector counted %d created, %d delivered, %d dropped for %d injections",
			created, delivered, dropped, 3*len(sources))
	}
}

// TestFlightPoolHygiene checks the free list under the two re-entry shapes
// and under load: a done that injects again synchronously reuses the record
// its own packet just released; the list never holds more records than
// packets were ever in flight at once, and never the same record twice.
func TestFlightPoolHygiene(t *testing.T) {
	w, s, sources := faultedLattice(t)

	// A dead source resolves inside Inject, so this chain is fully
	// synchronous: fifty packets, one record.
	dead := scenario.SensorIDs(w)[0]
	w.SetFailed(dead, true)
	chain := 0
	var again func(ok bool)
	again = func(ok bool) {
		if ok {
			t.Error("packet from a failed source was delivered")
		}
		if chain++; chain < 50 {
			s.Inject(dead, again)
		}
	}
	s.Inject(dead, again)
	if chain != 50 || len(s.flightFree) != 1 {
		t.Fatalf("synchronous re-injection: %d packets resolved, %d records minted, want 50 and 1", chain, len(s.flightFree))
	}

	// A burst from every source at once, each delivery injecting a follow-up.
	inFlight, peak, resolved := 0, 0, 0
	var done func(ok bool)
	inject := func(src world.NodeID) {
		if inFlight++; inFlight > peak {
			peak = inFlight
		}
		s.Inject(src, done)
	}
	done = func(ok bool) {
		inFlight--
		if resolved++; resolved <= len(sources) {
			inject(sources[resolved%len(sources)])
		}
	}
	for _, src := range sources {
		inject(src)
	}
	w.Sched.Run()
	if inFlight != 0 || resolved != 2*len(sources) {
		t.Fatalf("%d packets unresolved, %d resolved of %d", inFlight, resolved, 2*len(sources))
	}
	if n := len(s.flightFree); n == 0 || n > peak {
		t.Fatalf("free list holds %d flights, peak in flight was %d", n, peak)
	}
	seen := map[*flight]bool{}
	for _, f := range s.flightFree {
		if seen[f] {
			t.Fatal("a flight was released twice")
		}
		seen[f] = true
		if !reflect.ValueOf(f.p).IsZero() || f.cell != nil || f.dstCell != nil {
			t.Fatalf("recycled flight still holds references: %+v", f)
		}
	}
}
