package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWorkGolden pins the implementation effort of every forwarding-trace
// case: the WorkStats of each of its runs, compared exactly with
// testdata/work/<case>.json. The trace digests show a change kept the model's
// behaviour; these show how much work the implementation did to compute it,
// so a change that only makes an evaluation cheaper leaves them untouched
// and one that changes how many evaluations run shows up counter by counter.
// REFER_GOLDEN_WORK=1 rewrites the files instead of comparing.
func TestWorkGolden(t *testing.T) {
	rewrite := os.Getenv("REFER_GOLDEN_WORK") != ""
	for _, tc := range traceCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t, sha256.New())
			path := filepath.Join("..", "..", "testdata", "work", tc.name+".json")
			if rewrite {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no committed work golden (REFER_GOLDEN_WORK=1 writes one): %v", err)
			}
			var want []WorkStats
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d runs, committed %d", len(got), len(want))
			}
			for run := range got {
				g, w := reflect.ValueOf(got[run]), reflect.ValueOf(want[run])
				for i := 0; i < g.NumField(); i++ {
					if old, cur := w.Field(i).Interface(), g.Field(i).Interface(); old != cur {
						t.Errorf("run %d %s: committed %v, now %v", run, g.Type().Field(i).Name, old, cur)
					}
				}
			}
		})
	}
}
