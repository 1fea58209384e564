package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"refer"
)

// TestSpanDriverMatchesRun pins the one property the span pass rests on: the
// benchmark's own driver, built from public functions, computes the same
// run as refer.Run — DES events, packet counters and both energy ledgers —
// on a scaled-down config of every simulation workload.
func TestSpanDriverMatchesRun(t *testing.T) {
	for _, def := range workloads {
		if def.configs == nil {
			continue
		}
		cfgs, err := def.configs(newGenerator(1, def.name, true))
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		for i, cfg := range cfgs {
			want, err := refer.Run(cfg)
			if err != nil {
				t.Fatalf("%s config %d: refer.Run: %v", def.name, i, err)
			}
			got, err := spanRun(cfg, newTracer())
			if err != nil {
				t.Fatalf("%s config %d: span driver: %v", def.name, i, err)
			}
			if got != countersOf(want) {
				t.Errorf("%s config %d (%s): span driver %+v, refer.Run %+v", def.name, i, cfg.System, got, countersOf(want))
			}
			if want.Created == 0 || want.Stats.DESEvents == 0 {
				t.Errorf("%s config %d: degenerate run (%d packets, %d events) proves nothing", def.name, i, want.Created, want.Stats.DESEvents)
			}
		}
	}
}

// TestSmokeAllWorkloads runs both passes of every workload at smoke size and
// validates the outcome line against the contract and the catalogue.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, def := range workloads {
		for trace, catalogue := range [][]metricDef{endToEnd, perLayer} {
			var buf bytes.Buffer
			o := options{workload: def.name, seed: 7, trace: trace, smoke: true} // seconds 0: the floor of three repetitions
			if err := runOne(o, &buf); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", def.name, trace, err, buf.String())
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			last := lines[len(lines)-1]

			var raw map[string]json.RawMessage
			if err := json.Unmarshal(last, &raw); err != nil {
				t.Fatalf("%s trace=%d: last line is not JSON: %v\n%s", def.name, trace, err, last)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace=%d: outcome has %d keys, want exactly correct, attempted, failed, metrics", def.name, trace, len(raw))
			}
			var res outcome
			if err := json.Unmarshal(last, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", def.name, trace, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			if len(res.Metrics) != len(catalogue) {
				t.Errorf("%s trace=%d: %d metrics, want %d", def.name, trace, len(res.Metrics), len(catalogue))
			}
			for _, m := range catalogue {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", def.name, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace=%d: metric %s has unit %q, want %q", def.name, trace, m.name, got.Unit, m.unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, m.name, got.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the driver
// reads, and the catalogue this program reports from in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type benchmarkJSON struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}
	want := benchmarkJSON{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		want.EndToEnd = append(want.EndToEnd, metricJSON{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, metricJSON{m.name, m.unit, m.better, nil})
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		expected, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the catalogue in metrics.go and workloads.go; expected:\n%s", expected)
	}
}
