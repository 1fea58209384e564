package experiment

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestGoldenFigureCSV regenerates every committed figure CSV — testdata/figures/
// and testdata/recovery/ — with the CI quick-pass options (1 seed, 100 s
// warmup, 300 s window: what `refer-bench -seeds 1 -csv` runs) and
// byte-compares, each grid built once for all its figures (BuildFigures). It
// is the one byte-compare site for committed CSVs: under
// the default paper cost model no refactor may move a single byte; the
// L-family baselines pin the radio-model lifetime curves and the R-family
// the recovery campaigns the same way. The full pass takes tens of seconds,
// so it is gated behind REFER_GOLDEN_CSV=1; CI sets it in the
// scale-regression job on every push.
func TestGoldenFigureCSV(t *testing.T) {
	if os.Getenv("REFER_GOLDEN_CSV") == "" {
		t.Skip("set REFER_GOLDEN_CSV=1 to regenerate and compare every committed figure CSV")
	}
	var files []string
	for _, dir := range []string{"figures", "recovery"} {
		found, err := filepath.Glob(filepath.Join("..", "..", "testdata", dir, "fig*.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if len(found) == 0 {
			t.Fatalf("no committed figure CSVs found in testdata/%s", dir)
		}
		files = append(files, found...)
	}
	opts := Options{
		Seeds:    []int64{1},
		Warmup:   100 * time.Second,
		Duration: 300 * time.Second,
	}
	var ids []string
	want := make(map[string]string)
	for _, path := range files {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "fig"), ".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		want[id] = string(data)
	}
	err := BuildFigures(context.Background(), ids, opts, func(fig Figure) error {
		if got := fig.CSV(); got != want[fig.ID] {
			t.Errorf("fig %s diverged from committed baseline (%d vs %d bytes)",
				fig.ID, len(got), len(want[fig.ID]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
