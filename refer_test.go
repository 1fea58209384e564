package refer

import (
	"context"
	"testing"
	"time"
)

// TestPublicAPIQuickstart exercises the facade end-to-end the way the
// README's quick start does.
func TestPublicAPIQuickstart(t *testing.T) {
	w := BuildWorld(ScenarioParams{Seed: 1, Sensors: 200})
	sys := NewREFER(w)
	if err := sys.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	delivered := 0
	for _, src := range SensorIDs(w)[:10] {
		sys.Inject(src, func(ok bool) {
			if ok {
				delivered++
			}
		})
	}
	w.Sched.RunUntil(10 * time.Second)
	if delivered < 8 {
		t.Fatalf("delivered %d/10", delivered)
	}
}

func TestPublicAPIKautzTheory(t *testing.T) {
	g, err := NewGraph(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("K(2,3) N = %d", g.N())
	}
	u, err := ParseID("012")
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseID("201")
	if err != nil {
		t.Fatal(err)
	}
	routes, err := Routes(2, u, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 2 {
		t.Fatalf("routes = %d, want 2", len(routes))
	}
	if routes[0].Class != ClassShortest {
		t.Fatalf("first route class = %v", routes[0].Class)
	}
	if routes[0].Len() != KautzDistance(u, v) {
		t.Fatalf("shortest len %d != distance %d", routes[0].Len(), KautzDistance(u, v))
	}
	next, err := GreedyNext(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if next != routes[0].Path[1] {
		t.Fatalf("GreedyNext %s != shortest path hop %s", next, routes[0].Path[1])
	}
}

func TestPublicAPIAllSystemsRun(t *testing.T) {
	for _, name := range AllSystems() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := Run(RunConfig{
				System:   name,
				Scenario: ScenarioParams{Seed: 2, Sensors: 150, MaxSpeed: 1},
				Warmup:   20 * time.Second,
				Duration: 60 * time.Second,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Created == 0 {
				t.Fatal("no traffic generated")
			}
			if res.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
			if res.CommEnergy <= 0 || res.ConstructionEnergy <= 0 {
				t.Fatalf("energy not recorded: %+v", res)
			}
			if res.TotalEnergy() != res.CommEnergy+res.ConstructionEnergy {
				t.Fatal("TotalEnergy mismatch")
			}
		})
	}
}

func TestPublicAPIUnknownSystem(t *testing.T) {
	w := BuildWorld(ScenarioParams{Seed: 3, Sensors: 10})
	if _, err := NewSystem("nope", w); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestPublicAPIFigureSmoke(t *testing.T) {
	// A tiny Fig4 run through the facade: single seed, short window, two
	// systems, two mobility points would still sweep all five — so use the
	// smallest meaningful configuration and only sanity-check structure.
	fig, err := BuildFigure(context.Background(), "4", Options{
		Seeds:    []int64{1},
		Warmup:   10 * time.Second,
		Duration: 40 * time.Second,
		Systems:  []string{SystemREFER, SystemDaTree},
		Sensors:  120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "4" || len(fig.Series) != 2 {
		t.Fatalf("figure = %+v", fig)
	}
	for _, s := range fig.Series {
		if len(s.Points) != 5 {
			t.Fatalf("series %s has %d points", s.System, len(s.Points))
		}
	}
	if fig.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestPublicAPIREFERAddressing(t *testing.T) {
	w := BuildWorld(ScenarioParams{Seed: 4, Sensors: 200})
	sys := NewREFER(w)
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	cells := sys.Cells()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	addr, ok := sys.AddressOf(cells[0].Corners[0])
	if !ok {
		t.Fatal("corner has no address")
	}
	var delivered *bool
	src, _ := cells[0].Node("010")
	sys.SendTo(src, Address{CID: addr.CID, KID: addr.KID}, func(ok bool) { delivered = &ok })
	sys.StopMaintenance()
	w.Sched.Run()
	if delivered == nil || !*delivered {
		t.Fatal("SendTo through the facade failed")
	}
}
