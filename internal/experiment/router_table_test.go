package experiment

import (
	"context"
	"reflect"
	"testing"
	"time"

	"refer/internal/kautz"
	"refer/internal/scenario"
)

// TestRouterNeverMutatesTable guards the other half of the shared-view
// contract (kautz's TestTableViewIsShared pins that RouteTable.Routes hands
// out the table's own slices): no router may write through them. A fault
// campaign on K(3,3) cells — three disjoint paths per pair, most pairs with
// an equal-length run, so nearly every relay decision really permutes; K(2,3)
// has no equal-length pair at all — plus the Kautz overlay walking its own
// route sets, on four concurrent runs: the tables are process-wide, so under
// -race a write through a view is a reported race, and afterwards every
// entry of every table the campaign can have read — K(3,3) for the cells,
// K(2,k) for the overlay — must still equal a fresh Theorem 3.8
// computation, order included.
func TestRouterNeverMutatesTable(t *testing.T) {
	o := Options{
		Seeds:       []int64{1, 2, 3, 4},
		Systems:     []string{SystemREFERK33, SystemKautzOverlay},
		Warmup:      10 * time.Second,
		Duration:    40 * time.Second,
		Parallelism: 4,
	}
	table, err := sweep(context.Background(), "", grid{xs: []float64{20}, configure: func(_ Options, x float64, seed int64) RunConfig {
		return RunConfig{Scenario: scenario.Params{Seed: seed, Sensors: 400, MaxSpeed: 3}, FaultCount: int(x)}
	}}, o)
	if err != nil {
		t.Fatal(err)
	}
	if table.Stats.RouteTableHits == 0 || table.Stats.FailoverSwitches == 0 {
		t.Fatalf("campaign never exercised the table: %d hits, %d failover switches",
			table.Stats.RouteTableHits, table.Stats.FailoverSwitches)
	}
	for _, dk := range [][2]int{{3, 3}, {2, 1}, {2, 2}, {2, 3}, {2, 4}, {2, 5}, {2, 6}, {2, 7}} {
		d, k := dk[0], dk[1]
		rt, err := kautz.TableFor(d, k)
		if err != nil {
			t.Fatal(err)
		}
		g, err := kautz.New(d, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range g.Nodes() {
			for _, v := range g.Nodes() {
				if u == v {
					continue
				}
				fresh, err := kautz.Routes(d, u, v)
				if err != nil {
					t.Fatal(err)
				}
				if tabled, _ := rt.Routes(u, v); !reflect.DeepEqual(tabled, fresh) {
					t.Fatalf("K(%d,%d) entry %s→%s was modified in place: table %v, fresh %v",
						d, k, u, v, tabled, fresh)
				}
			}
		}
	}
}
