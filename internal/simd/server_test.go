package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"refer/internal/chaos"
	"refer/internal/experiment"
	"refer/internal/recovery"
	"refer/internal/scenario"
)

// smallRun is a cheap but REFER-buildable run request (sparse deployments
// can fail core embedding; 140 sensors builds for every seed in 1..16).
func smallRun(seed int64) RunRequest {
	return RunRequest{
		Seed:             seed,
		Sensors:          140,
		WarmupS:          1,
		DurationS:        3,
		Sources:          2,
		PacketsPerSource: 2,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitTerminal polls a run until it reaches a terminal state.
func waitTerminal(t *testing.T, client *http.Client, base, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, data := getBody(t, client, base+"/runs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /runs/%s: %d %s", id, resp.StatusCode, data)
		}
		var st RunStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerLoadSmoke is the issue's load criterion in-process: >=1000
// concurrent short-run submissions over a small set of distinct configs.
// Exactly one execution per distinct config happens; every other
// submission is served by the in-flight dedup or the result cache, the
// bounded queue never overflows, and per-key results are byte-identical
// across submissions.
func TestServerLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke is not a -short test")
	}
	const (
		distinct    = 16
		submissions = 1200
		clients     = 48
	)
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	ids := make([]string, submissions)
	var wg sync.WaitGroup
	errs := make(chan error, submissions)
	sem := make(chan struct{}, clients)
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, data := postJSON(t, client, ts.URL+"/runs", smallRun(int64(1+i%distinct)))
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("submission %d: %d %s", i, resp.StatusCode, data)
				return
			}
			var sub SubmitResponse
			if err := json.Unmarshal(data, &sub); err != nil {
				errs <- fmt.Errorf("submission %d: %v", i, err)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every submission resolved to a run that finishes successfully.
	states := make(map[string]RunStatus)
	for _, id := range ids {
		if _, ok := states[id]; ok {
			continue
		}
		st := waitTerminal(t, client, ts.URL, id)
		if st.State != StateDone {
			t.Fatalf("run %s finished %s: %s", id, st.State, st.Error)
		}
		states[id] = st
	}

	// Per canonical key, all runs serve byte-identical results.
	byKey := make(map[string][]string)
	for id, st := range states {
		byKey[st.Key] = append(byKey[st.Key], id)
	}
	if len(byKey) != distinct {
		t.Fatalf("got %d distinct keys, want %d", len(byKey), distinct)
	}
	for key, keyIDs := range byKey {
		var first []byte
		for _, id := range keyIDs[:min(len(keyIDs), 3)] {
			resp, data := getBody(t, client, ts.URL+"/runs/"+id+"/result")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET result %s: %d %s", id, resp.StatusCode, data)
			}
			if first == nil {
				first = data
			} else if !bytes.Equal(first, data) {
				t.Fatalf("key %s: results diverge across submissions", key)
			}
		}
	}

	resp, data := getBody(t, client, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Submitted != submissions {
		t.Errorf("submitted = %d, want %d", m.Submitted, submissions)
	}
	if m.Rejected != 0 {
		t.Errorf("rejected = %d, want 0 (dedup should keep the queue bounded)", m.Rejected)
	}
	if m.CacheMisses != distinct {
		t.Errorf("cache_misses = %d, want %d (one execution per distinct config)", m.CacheMisses, distinct)
	}
	if m.CacheHits+m.Deduped != submissions-distinct {
		t.Errorf("cache_hits(%d) + deduped(%d) != %d", m.CacheHits, m.Deduped, submissions-distinct)
	}
	if m.Completed != distinct {
		t.Errorf("completed = %d, want %d", m.Completed, distinct)
	}
	if m.DESEvents == 0 || m.DESEventsPerSec <= 0 {
		t.Errorf("DES throughput not reported: %+v", m)
	}
	if len(m.RouteTables) == 0 {
		t.Error("no shared route tables reported")
	}
}

// TestServerCacheByteIdentical pins the cache contract directly: the cached
// response is byte-identical both to the fresh run's response and to an
// in-process RunContext of the same config with host timing stripped.
func TestServerCacheByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	client := ts.Client()
	req := smallRun(3)

	resp, data := postJSON(t, client, ts.URL+"/runs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: %d %s", resp.StatusCode, data)
	}
	var first SubmitResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, client, ts.URL, first.ID); st.State != StateDone {
		t.Fatalf("first run finished %s: %s", st.State, st.Error)
	}
	_, freshBody := getBody(t, client, ts.URL+"/runs/"+first.ID+"/result")

	resp, data = postJSON(t, client, ts.URL+"/runs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second submission: %d %s", resp.StatusCode, data)
	}
	var second SubmitResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", first.Key, second.Key)
	}
	_, cachedBody := getBody(t, client, ts.URL+"/runs/"+second.ID+"/result")
	if !bytes.Equal(freshBody, cachedBody) {
		t.Fatal("cached result is not byte-identical to the fresh run's result")
	}

	// The figure route honours the same contract.
	figReq := FigureRequest{
		Seeds:            []int64{1},
		WarmupS:          1,
		DurationS:        3,
		Sensors:          140,
		Systems:          []string{experiment.SystemREFER},
		PacketsPerSource: 2,
	}
	resp, data = postJSON(t, client, ts.URL+"/figures/4/runs", figReq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("figure submission: %d %s", resp.StatusCode, data)
	}
	var fig SubmitResponse
	if err := json.Unmarshal(data, &fig); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, client, ts.URL, fig.ID); st.State != StateDone {
		t.Fatalf("figure run finished %s: %s", st.State, st.Error)
	}
	resp, data = postJSON(t, client, ts.URL+"/figures/4/runs", figReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second figure submission: %d %s", resp.StatusCode, data)
	}
	var figAgain SubmitResponse
	if err := json.Unmarshal(data, &figAgain); err != nil {
		t.Fatal(err)
	}
	if !figAgain.Cached || figAgain.Key != fig.Key {
		t.Fatalf("second figure submission missed the cache: %+v vs key %s", figAgain, fig.Key)
	}
	for _, part := range []string{"/csv", "/stats"} {
		_, fresh := getBody(t, client, ts.URL+"/runs/"+fig.ID+part)
		_, cached := getBody(t, client, ts.URL+"/runs/"+figAgain.ID+part)
		if len(fresh) == 0 || !bytes.Equal(fresh, cached) {
			t.Fatalf("cached figure's %s is not byte-identical to the fresh build's", part)
		}
	}

	// What the cache holds has no host half at all, whatever fields that
	// half has: the emptiness is checked on the type, not on a name list.
	opts, err := figReq.Options()
	if err != nil {
		t.Fatal(err)
	}
	tableKey, err := experiment.TableKey("4", opts)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	runEnt, _ := s.cache.get(first.Key)
	figEnt, _ := s.cache.get(tableKey)
	s.mu.Unlock()
	if runEnt == nil || runEnt.result.Stats.DESEvents == 0 || runEnt.result.Stats.HostStats != (experiment.HostStats{}) {
		t.Fatalf("cached run entry: %+v", runEnt)
	}
	if figEnt == nil || figEnt.table.Stats.Runs == 0 || figEnt.table.Stats.SweepHostStats != (experiment.SweepHostStats{}) {
		t.Fatalf("cached figure entry: %+v", figEnt)
	}
	for _, row := range figEnt.table.Cells {
		for _, cell := range row {
			for _, r := range cell {
				if r.Stats.DESEvents == 0 || r.Stats.HostStats != (experiment.HostStats{}) {
					t.Fatalf("cached table cell: %+v", r.Stats)
				}
			}
		}
	}

	// The served bytes equal a local replay of the same config.
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	local, err := experiment.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if local.Stats.WallClock <= 0 || local.Stats.SimStats != runEnt.result.Stats.SimStats {
		t.Fatalf("cached sim stats diverge from a fresh local run's:\n%+v\nvs\n%+v", runEnt.result.Stats, local.Stats)
	}
	local.Stats = local.Stats.StripWallClock()
	want, err := json.MarshalIndent(local, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(want, freshBody) {
		t.Fatalf("served result diverges from local replay:\n%s\nvs\n%s", freshBody, want)
	}
}

// TestServerBackpressure fills the one-deep queue with a blocked worker and
// checks the next submission is rejected 429 with a Retry-After hint.
func TestServerBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.runSingle = func(ctx context.Context, cfg experiment.RunConfig, _ func(experiment.RunProgress)) (experiment.Result, error) {
		select {
		case <-release:
			return experiment.Result{System: cfg.System, Created: int(cfg.Scenario.Seed)}, nil
		case <-ctx.Done():
			return experiment.Result{}, ctx.Err()
		}
	}
	client := ts.Client()

	// First run occupies the worker, second the queue slot.
	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		resp, data := postJSON(t, client, ts.URL+"/runs", smallRun(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: %d %s", seed, resp.StatusCode, data)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}
	// Wait for the worker to pick up run 1 so run 2 owns the queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, data := getBody(t, client, ts.URL+"/runs/"+ids[0])
		var st RunStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never started", ids[0])
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, data := postJSON(t, client, ts.URL+"/runs", smallRun(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if m := s.MetricsSnapshot(); m.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Rejected)
	}

	close(release)
	for _, id := range ids {
		if st := waitTerminal(t, client, ts.URL, id); st.State != StateDone {
			t.Fatalf("run %s finished %s", id, st.State)
		}
	}
}

// TestServerCancel cancels both a running run (context propagation) and a
// queued run (finished without ever starting).
func TestServerCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s.runSingle = func(ctx context.Context, _ experiment.RunConfig, _ func(experiment.RunProgress)) (experiment.Result, error) {
		<-ctx.Done()
		return experiment.Result{}, ctx.Err()
	}
	client := ts.Client()

	submit := func(seed int64) string {
		resp, data := postJSON(t, client, ts.URL+"/runs", smallRun(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission: %d %s", resp.StatusCode, data)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatal(err)
		}
		return sub.ID
	}
	running := submit(1)
	queued := submit(2)

	del := func(id string) RunStatus {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: %d %s", id, resp.StatusCode, data)
		}
		var st RunStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Queued run: cancelled immediately, never starts.
	if st := del(queued); st.State != StateCancelled {
		t.Fatalf("queued run state after DELETE = %s, want cancelled", st.State)
	}
	// Running run: context cancellation propagates, terminal shortly after.
	del(running)
	if st := waitTerminal(t, client, ts.URL, running); st.State != StateCancelled {
		t.Fatalf("running run finished %s, want cancelled", st.State)
	}
	if m := s.MetricsSnapshot(); m.Cancelled != 2 {
		t.Errorf("cancelled = %d, want 2", m.Cancelled)
	}
}

// TestServerFigure builds a registered figure through the HTTP API and
// checks the served CSV is byte-identical to a local build of the same
// options (parallelism is a latency knob, not a result knob).
func TestServerFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure build is not a -short test")
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, FigureParallelism: 2})
	client := ts.Client()
	req := FigureRequest{
		Seeds:            []int64{1},
		WarmupS:          2,
		DurationS:        5,
		Sensors:          120,
		Systems:          []string{experiment.SystemREFER},
		PacketsPerSource: 2,
	}
	resp, data := postJSON(t, client, ts.URL+"/figures/4/runs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("figure submission: %d %s", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, client, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("figure run finished %s: %s", st.State, st.Error)
	}
	if st.Sweep == nil || st.Sweep.Done != st.Sweep.Total || st.Sweep.Aborted {
		t.Fatalf("terminal sweep status: %+v", st.Sweep)
	}
	respCSV, csv := getBody(t, client, ts.URL+"/runs/"+sub.ID+"/csv")
	if respCSV.StatusCode != http.StatusOK {
		t.Fatalf("GET csv: %d %s", respCSV.StatusCode, csv)
	}

	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 1
	fig, err := experiment.BuildFigure(context.Background(), "4", opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := fig.CSV(); string(csv) != want {
		t.Fatalf("served CSV diverges from local build:\n%s\nvs\n%s", csv, want)
	}

	// Unknown figure IDs are a 404 at submission time.
	resp, _ = postJSON(t, client, ts.URL+"/figures/nope/runs", FigureRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown figure returned %d, want 404", resp.StatusCode)
	}
}

// TestServerEventsStream reads the NDJSON status stream of a stubbed run
// and checks it ends with the terminal status.
func TestServerEventsStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	s.runSingle = func(ctx context.Context, _ experiment.RunConfig, onProgress func(experiment.RunProgress)) (experiment.Result, error) {
		close(started)
		<-release
		onProgress(experiment.RunProgress{SimTime: time.Second, SimEnd: 2 * time.Second, DESEvents: 42})
		return experiment.Result{}, nil
	}
	client := ts.Client()
	resp, data := postJSON(t, client, ts.URL+"/runs", smallRun(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission: %d %s", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	<-started

	streamResp, err := client.Get(ts.URL + "/runs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if streamResp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: %d", streamResp.StatusCode)
	}
	close(release)
	body, err := io.ReadAll(streamResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream had %d lines, want at least initial + terminal:\n%s", len(lines), body)
	}
	var last RunStatus
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if last.State != StateDone {
		t.Fatalf("stream ended in state %s, want done", last.State)
	}
	var firstLine RunStatus
	if err := json.Unmarshal([]byte(lines[0]), &firstLine); err != nil {
		t.Fatalf("first line: %v", err)
	}
	if firstLine.State != StateRunning {
		t.Fatalf("stream opened in state %s, want running", firstLine.State)
	}
}

// TestServerValidation covers the 4xx surface.
func TestServerValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	client := ts.Client()

	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"unknown system", "/runs", `{"system":"not-a-system"}`, 400},
		// The two same-output REFER arms are gone, not aliased.
		{"removed system linear-scan", "/runs", `{"system":"REFER/linear-scan"}`, 400},
		{"removed system direct-routes", "/runs", `{"system":"REFER/direct-routes"}`, 400},
		{"figure removed system", "/figures/S1/runs", `{"systems":["REFER","REFER/linear-scan"]}`, 400},
		{"negative warmup", "/runs", `{"warmup_s":-1}`, 400},
		{"negative count", "/runs", `{"sources":-1}`, 400},
		{"negative speed", "/runs", `{"max_speed":-1}`, 400},
		{"negative battery", "/runs", `{"sensor_battery_j":-1}`, 400},
		// 1e10 s used to wrap to −2562047 h, pass the sign check, "complete"
		// with 0 events and be cached as done.
		{"duration overflowing time.Duration", "/runs", `{"duration_s":1e10}`, 400},
		{"windows overflowing the virtual clock", "/runs", `{"warmup_s":9e9,"duration_s":9e9}`, 400},
		{"malformed chaos schedule", "/runs", `{"chaos":{"events":[{"kind":"blackout","at":"1s"}]}}`, 400},
		{"malformed energy spec", "/runs", `{"energy":{"model":"nope"}}`, 400},
		// A misspelt or retired field would otherwise run, and cache, the
		// default config under the caller's intent.
		{"misspelt field", "/runs", `{"seed":1,"sensor":50}`, 400},
		{"retired field", "/runs", `{"seed":1,"drain_parallelism":4}`, 400},
		{"oversized body", "/runs", `{"system":"` + strings.Repeat("x", maxBodyBytes) + `"}`, 413},
		{"absurd figure parallelism", "/figures/4/runs", `{"parallelism":1048576}`, 400},
		{"negative figure parallelism", "/figures/4/runs", `{"parallelism":-1}`, 400},
		{"figure duration overflowing time.Duration", "/figures/4/runs", `{"duration_s":1e10}`, 400},
		{"figure unknown system", "/figures/4/runs", `{"systems":["not-a-system"]}`, 400},
		{"figure misspelt field", "/figures/4/runs", `{"seed":[1]}`, 400},
	} {
		resp, err := client.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s returned %d, want %d: %s", tc.name, resp.StatusCode, tc.want, data)
		}
	}
	if m := s.MetricsSnapshot(); m.Submitted != 0 || m.CacheEntries != 0 {
		t.Errorf("a rejected body reached the queue or the cache: %+v", m)
	}
	resp, _ := getBody(t, client, ts.URL+"/runs/r-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run returned %d, want 404", resp.StatusCode)
	}
	resp, _ = getBody(t, client, ts.URL+"/runs/r-999999/result")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run result returned %d, want 404", resp.StatusCode)
	}

	// Sanity of discovery endpoints.
	resp, data := getBody(t, client, ts.URL+"/systems")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /systems: %d", resp.StatusCode)
	}
	var systems []string
	if err := json.Unmarshal(data, &systems); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(systems, experiment.KnownSystems()) {
		t.Errorf("systems list %v, want the registry's %v", systems, experiment.KnownSystems())
	}
	resp, data = getBody(t, client, ts.URL+"/figures")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /figures: %d", resp.StatusCode)
	}
	if !bytes.Contains(data, []byte(`"id"`)) {
		t.Errorf("figures list: %s", data)
	}
}

// Config conversion sanity: the wire request round-trips into the same
// canonical key as a hand-built RunConfig.
func TestRunRequestConfigKey(t *testing.T) {
	wire := smallRun(9)
	cfg, err := wire.Config()
	if err != nil {
		t.Fatal(err)
	}
	direct := experiment.RunConfig{
		Scenario:         scenario.Params{Seed: 9, Sensors: 140},
		Warmup:           time.Second,
		Duration:         3 * time.Second,
		Sources:          2,
		PacketsPerSource: 2,
	}
	k1, err := experiment.ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := experiment.ConfigKey(direct)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("wire and direct configs hash differently:\n%s\n%s", k1, k2)
	}
}

// TestRecoveryWireCacheAndMetrics pins the serving-layer contract of the
// recovery field: an enabled spec is part of the content address (it
// changes the result), the stored result keeps its
// recovery counters (virtual-time deterministic, so they survive
// stripping), and the server-side totals accumulate on /metrics.
func TestRecoveryWireCacheAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	client := ts.Client()

	// The R-family lattice campaign at unit-test scale: churn plus two
	// permanent actuator kills that only the recovery protocols repair.
	sec := func(n int) chaos.Duration { return chaos.Duration(time.Duration(n) * time.Second) }
	req := RunRequest{
		Seed:         3,
		Sensors:      400,
		MaxSpeed:     1,
		ActuatorGrid: 3,
		WarmupS:      20,
		DurationS:    100,
		Chaos: &chaos.Schedule{
			Seed: 3,
			Events: []chaos.Event{
				{Kind: chaos.Churn, At: sec(10), Rate: 0.1, Duration: sec(120), Downtime: sec(30)},
				{Kind: chaos.ActuatorKill, At: sec(30), Node: 1},
				{Kind: chaos.ActuatorKill, At: sec(45), Node: 2},
			},
		},
		Recovery: &recovery.Spec{Enabled: true},
	}
	resp, data := postJSON(t, client, ts.URL+"/runs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, client, ts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("recovery run ended %s", st.State)
	}

	// The stored result keeps the deterministic recovery counters.
	_, body := getBody(t, client, ts.URL+"/runs/"+sub.ID+"/result")
	var res experiment.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recovery.Repairs() == 0 {
		t.Fatalf("stored result has no repairs: %+v", res.Stats.Recovery)
	}

	// The same campaign without the spec is a different experiment: its key
	// must differ (recovery is in the content address, not a latency knob).
	plain := req
	plain.Recovery = nil
	resp, data = postJSON(t, client, ts.URL+"/runs", plain)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit plain: %d: %s", resp.StatusCode, data)
	}
	var plainSub SubmitResponse
	if err := json.Unmarshal(data, &plainSub); err != nil {
		t.Fatal(err)
	}
	if plainSub.Key == sub.Key {
		t.Fatalf("recovery-enabled and recovery-off submissions share key %s", sub.Key)
	}
	if plainSub.Cached {
		t.Fatal("recovery-off submission served from the recovery-enabled cache entry")
	}

	// A malformed spec is a 400 at the wire, never keyed or queued.
	bad := req
	bad.Recovery = &recovery.Spec{Enabled: true, GraceS: -1}
	resp, data = postJSON(t, client, ts.URL+"/runs", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed recovery spec: %d: %s", resp.StatusCode, data)
	}

	m := s.MetricsSnapshot()
	if m.RecoveryReelections == 0 {
		t.Fatalf("metrics recovery_reelections = 0 after a recovery run: %+v", m)
	}
	if m.RecoveryLatencyNs <= 0 {
		t.Fatalf("metrics recovery_latency_ns not accumulated: %+v", m)
	}
	if got := res.Stats.Recovery.Reelections; uint64(got) != m.RecoveryReelections {
		t.Fatalf("metrics (%d) disagree with the run's counters (%d)", m.RecoveryReelections, got)
	}
}

// TestServerFigureSharesGrid pins that the cache holds what was computed, not
// what was asked: figure 5 after figure 4 with the same options is a cache
// hit on the mobility grid's table — nothing queued, executed or stored anew —
// and both figures' bytes equal a local build's. The second half pins the
// other direction on a stubbed builder: S1 with its default arms and S1 with
// all four systems are different sweeps and must not share an entry.
func TestServerFigureSharesGrid(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	client := ts.Client()
	req := FigureRequest{
		Seeds:            []int64{1},
		WarmupS:          1,
		DurationS:        3,
		Sensors:          140,
		Systems:          []string{experiment.SystemREFER},
		PacketsPerSource: 2,
	}
	submit := func(url string, body any, wantStatus int) SubmitResponse {
		t.Helper()
		resp, data := postJSON(t, client, url, body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s: %d, want %d: %s", url, resp.StatusCode, wantStatus, data)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	four := submit(ts.URL+"/figures/4/runs", req, http.StatusAccepted)
	if st := waitTerminal(t, client, ts.URL, four.ID); st.State != StateDone {
		t.Fatalf("figure 4 finished %s: %s", st.State, st.Error)
	}
	before := s.MetricsSnapshot()
	five := submit(ts.URL+"/figures/5/runs", req, http.StatusOK)
	if !five.Cached || five.State != StateDone || five.Key == four.Key {
		t.Fatalf("figure 5 after figure 4: %+v (figure 4's key %s)", five, four.Key)
	}
	after := s.MetricsSnapshot()
	if after.Completed != before.Completed || after.CacheMisses != before.CacheMisses ||
		after.DESEvents != before.DESEvents || after.DESEvents == 0 ||
		after.CacheEntries != 1 || after.CacheHits != before.CacheHits+1 {
		t.Fatalf("serving figure 5 from figure 4's table moved the wrong counters:\nbefore %+v\nafter  %+v", before, after)
	}

	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct{ fig, id string }{{"4", four.ID}, {"5", five.ID}} {
		local, err := experiment.BuildFigure(context.Background(), sub.fig, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, csv := getBody(t, client, ts.URL+"/runs/"+sub.id+"/csv"); string(csv) != local.CSV() {
			t.Errorf("figure %s: served CSV diverges from a local build:\n%s\nvs\n%s", sub.fig, csv, local.CSV())
		}
		_, data := getBody(t, client, ts.URL+"/runs/"+sub.id+"/stats")
		var stats experiment.SweepStats
		if err := json.Unmarshal(data, &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Runs != local.Stats.Runs || stats.SweepHostStats != (experiment.SweepHostStats{}) {
			t.Errorf("figure %s: served stats %+v", sub.fig, stats)
		}
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s2.buildTable = func(context.Context, string, experiment.Options) (experiment.Table, error) {
		return experiment.Table{}, nil
	}
	arms := submit(ts2.URL+"/figures/S1/runs", FigureRequest{}, http.StatusAccepted)
	if st := waitTerminal(t, client, ts2.URL, arms.ID); st.State != StateDone {
		t.Fatalf("stubbed S1 finished %s: %s", st.State, st.Error)
	}
	all := submit(ts2.URL+"/figures/S1/runs", FigureRequest{Systems: experiment.AllSystems()}, http.StatusAccepted)
	if all.Cached || all.Key == arms.Key {
		t.Fatalf("S1 over all four systems was served S1's default arm: %+v", all)
	}
}
