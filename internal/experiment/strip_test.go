package experiment

import (
	"context"
	"reflect"
	"sort"
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

// strippedFields fills a T completely, strips it and returns the sorted paths
// of the fields the strip zeroed.
func strippedFields[T any](t *testing.T, strip func(T) T) []string {
	t.Helper()
	var full T
	fillLeaves(t, reflect.ValueOf(&full).Elem(), "")
	if z := zeroLeaves(reflect.ValueOf(full), "", nil); len(z) != 0 {
		t.Fatalf("fillLeaves left %v zero", z)
	}
	got := zeroLeaves(reflect.ValueOf(strip(full)), "", nil)
	sort.Strings(got)
	return got
}

// TestStripWallClockZeroesOnlyHostTiming pins the one hand-maintained list
// between a run and a content-addressed cache from both sides: the strips
// zero exactly the host-timing fields and nothing else, and a run's stats
// minus those fields do not depend on the host — so a host-dependent field
// added without being stripped fails here, not in a cache.
func TestStripWallClockZeroesOnlyHostTiming(t *testing.T) {
	if got, want := strippedFields(t, RunStats.StripWallClock), []string{".EventsPerSec", ".WallClock"}; !reflect.DeepEqual(got, want) {
		t.Errorf("RunStats.StripWallClock zeroes %v, want exactly %v", got, want)
	}
	if got, want := strippedFields(t, SweepStats.StripWallClock), []string{".EventsPerSec", ".RunWallClock", ".WallClock"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SweepStats.StripWallClock zeroes %v, want exactly %v", got, want)
	}

	// A mobile REFER run under chaos and recovery, replayed serially and then
	// four at a time through a sweep: every stripped RunStats is the same.
	cfg := latticeCampaign(3, 30, 45)
	var ref RunStats
	for i := 0; i < 2; i++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Stats.StripWallClock()
		if i == 0 {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("replay's stripped stats diverged:\n%+v\nvs\n%+v", got, ref)
		}
	}
	if ref.DESEvents == 0 || ref.Chaos.Events == 0 || ref.Recovery.Repairs() == 0 {
		t.Fatalf("degenerate run: %+v", ref)
	}
	o := Options{Seeds: []int64{1, 2, 3, 4}, Systems: []string{cfg.System}, Parallelism: 4}
	var swept []RunStats
	_, err := sweep(context.Background(), o, []float64{0},
		func(float64, int64) RunConfig { return cfg }, // the same run, four times over
		func(r Result) float64 {
			swept = append(swept, r.Stats.StripWallClock()) // pick runs under the sweep's lock
			return 0
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != len(o.Seeds) {
		t.Fatalf("sweep produced %d runs, want %d", len(swept), len(o.Seeds))
	}
	for i, got := range swept {
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("sweep run %d: stripped stats diverged from the serial run:\n%+v\nvs\n%+v", i, got, ref)
		}
	}
}
