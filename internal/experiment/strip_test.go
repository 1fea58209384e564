package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// fillLeaves sets every leaf field under v to a non-zero value.
func fillLeaves(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	default:
		t.Fatalf("%s: fillLeaves does not know kind %s; teach it before adding such a field", path, v.Kind())
	}
}

// zeroLeaves appends the dotted paths of the zero-valued leaf fields under v.
func zeroLeaves(v reflect.Value, path string, out []string) []string {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			out = zeroLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
		return out
	}
	if v.IsZero() {
		out = append(out, path)
	}
	return out
}

// leafNames appends the Go and JSON names of the fields typ promotes: its own
// fields, with embedded structs flattened.
func leafNames(typ reflect.Type, out []string) []string {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous {
			out = leafNames(f.Type, out)
			continue
		}
		out = append(out, f.Name)
		if tag := f.Tag.Get("json"); tag != "" {
			out = append(out, "json:"+tag)
		}
	}
	return out
}

// checkHalves pins the stats-by-type contract on one stats type: T is exactly
// an embedded host half, an embedded work half and an embedded sim half, in
// that order; every promoted field and JSON name lives in exactly one of them
// (a name in two would be an ambiguous selector and silently vanish from the
// encoding); and strip zeroes every leaf of the host half — the set is read
// off the type, so a new host-dependent field needs no list anywhere — and no
// leaf of the other two.
func checkHalves[T any](t *testing.T, strip func(T) T) {
	t.Helper()
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if typ.NumField() != 3 {
		t.Fatalf("%s has %d fields, want exactly a host, a work and a sim half", typ.Name(), typ.NumField())
	}
	seen := map[string]string{}
	for i, suffix := range []string{"HostStats", "WorkStats", "SimStats"} {
		half := typ.Field(i)
		if !half.Anonymous || !strings.HasSuffix(half.Name, suffix) {
			t.Fatalf("%s field %d is %s, want an embedded …%s", typ.Name(), i, half.Name, suffix)
		}
		for _, name := range leafNames(half.Type, nil) {
			if other, dup := seen[name]; dup {
				t.Errorf("%s: %s is declared in both %s and %s", typ.Name(), name, other, half.Name)
			}
			seen[name] = half.Name
		}
	}
	var full T
	fillLeaves(t, reflect.ValueOf(&full).Elem(), "")
	if z := zeroLeaves(reflect.ValueOf(full), "", nil); len(z) != 0 {
		t.Fatalf("fillLeaves left %v zero", z)
	}
	stripped := reflect.ValueOf(strip(full))
	if !stripped.Field(0).IsZero() {
		t.Errorf("%s.StripWallClock left host fields set: %+v", typ.Name(), stripped.Field(0))
	}
	for i := 1; i < 3; i++ {
		if z := zeroLeaves(stripped.Field(i), "", nil); len(z) != 0 {
			t.Errorf("%s.StripWallClock zeroed deterministic fields %v", typ.Name(), z)
		}
	}
}

// TestStripWallClockZeroesOnlyHostTiming pins the line between a run and a
// content-addressed cache from both sides. By type: each stats block is a
// host half, a work half and a sim half, and the strips drop exactly the
// first. By behaviour: the other two do not depend on the host — a mobile
// REFER run under chaos and recovery yields the same work and sim stats
// replayed serially and four at a time, and the sweeps' own agree at
// parallelism 1 and 4 — so a host-dependent field placed in the wrong half
// fails here, not in a cache.
func TestStripWallClockZeroesOnlyHostTiming(t *testing.T) {
	checkHalves(t, RunStats.StripWallClock)
	checkHalves(t, SweepStats.StripWallClock)

	cfg := latticeCampaign(3, 30, 45)
	// campaign runs cfg four times over (the sweep's seeds only count the
	// repetitions) and returns every run's stats and the sweep's own, both
	// without their host halves.
	campaign := func(parallelism int) ([]RunStats, SweepStats) {
		o := Options{Seeds: []int64{1, 2, 3, 4}, Systems: []string{cfg.System}, Parallelism: parallelism}
		table, err := sweep(context.Background(), "", grid{xs: []float64{0},
			configure: func(Options, float64, int64) RunConfig { return cfg }}, o)
		if err != nil {
			t.Fatal(err)
		}
		var runs []RunStats
		for _, r := range table.Cells[0][0] {
			runs = append(runs, r.Stats.StripWallClock())
		}
		if len(runs) != len(o.Seeds) || table.Stats.WallClock <= 0 || table.Stats.RunWallClock <= 0 {
			t.Fatalf("parallelism %d: %d runs, host stats %+v", parallelism, len(runs), table.Stats.SweepHostStats)
		}
		// The table's own strip reaches every cell and nothing deterministic.
		table.StripWallClock()
		for i, r := range table.Cells[0][0] {
			if !reflect.DeepEqual(r.Stats, runs[i]) {
				t.Fatalf("Table.StripWallClock left run %d as %+v", i, r.Stats)
			}
		}
		if table.Stats.SweepHostStats != (SweepHostStats{}) {
			t.Fatalf("Table.StripWallClock left sweep host stats %+v", table.Stats.SweepHostStats)
		}
		return runs, table.Stats
	}
	serial, serialSweep := campaign(1)
	parallel, parallelSweep := campaign(4)
	ref := serial[0]
	if ref.DESEvents == 0 || ref.MobilityEvals == 0 || ref.Chaos.Events == 0 || ref.Recovery.Repairs() == 0 {
		t.Fatalf("degenerate run: %+v", ref)
	}
	for i, got := range append(serial, parallel...) {
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d: stats diverged from the first replay:\n%+v\nvs\n%+v", i, got, ref)
		}
	}
	if !reflect.DeepEqual(serialSweep, parallelSweep) {
		t.Fatalf("sweep stats differ between parallelism 1 and 4:\n%+v\nvs\n%+v", serialSweep, parallelSweep)
	}
}
