package experiment

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestParallelismInvariance pins the determinism contract the refer-simd
// server and the -parallel flag rely on: every grid yields the same table —
// each cell's Result with its SimStats, the sweep's SweepSimStats — and so
// every registered figure byte-identical CSV output, whether its sweep runs
// one simulation at a time or four concurrently. Each run is seeded independently and lands in
// the cell slot of its (system, x, seed), so completion order must not leak
// into the output. Each grid is built once per parallelism, by the first of
// its figures' subtests to get there. The network-growth studies (KindScale)
// are excluded only for cost — their 10,000-sensor points dwarf the rest of
// the suite — not because they are exempt from the contract.
func TestParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps are not -short tests")
	}
	base := Options{
		Seeds:            []int64{1},
		Warmup:           2 * time.Second,
		Duration:         5 * time.Second,
		Sensors:          140,
		PacketsPerSource: 2,
	}
	type built struct {
		once     sync.Once
		seq, par Table
		err      error
	}
	tables := make(map[string]*built)
	for _, spec := range Figures() {
		if spec.Kind == KindScale {
			continue
		}
		spec, b := spec, tables[spec.Grid]
		if b == nil {
			b = new(built)
			tables[spec.Grid] = b
		}
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			b.once.Do(func() {
				seq, par := base, base
				seq.Parallelism = 1
				par.Parallelism = 4
				if b.seq, b.err = BuildTable(context.Background(), spec.ID, seq); b.err != nil {
					return
				}
				if b.par, b.err = BuildTable(context.Background(), spec.ID, par); b.err != nil {
					return
				}
				// Without their host halves the two tables are one value: every
				// cell's Result with its SimStats, and the SweepSimStats.
				b.seq.StripWallClock()
				b.par.StripWallClock()
				if !reflect.DeepEqual(b.seq, b.par) {
					b.err = fmt.Errorf("tables differ between parallelism 1 and 4:\n%+v\nvs\n%+v", b.seq, b.par)
				}
			})
			if b.err != nil {
				t.Fatalf("grid %s: %v", spec.Grid, b.err)
			}
			if c1, c4 := b.seq.Figure(spec).CSV(), b.par.Figure(spec).CSV(); c1 != c4 {
				t.Errorf("figure %s CSV differs between parallelism 1 and 4:\n%s\nvs\n%s", spec.ID, c1, c4)
			}
		})
	}
}
