package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"refer"
	"refer/internal/scenario"
	"refer/internal/simd"
)

// Shape of the simd_serve workload: a closed loop of serveClients clients
// works through a seeded plan of serveOps operations, 95 % of which re-submit
// one of serveHot hot configs and 5 % submit a config never seen before.
const (
	serveOps     = 12000
	serveHot     = 256
	serveClients = 2
	serveWorkers = 2
	serveQueue   = 64
)

// servePlan is the generated input of simd_serve: the distinct run requests
// (hot ones first) and the order operations submit them in.
type servePlan struct {
	requests []simd.RunRequest
	bodies   [][]byte
	hot      int   // requests[:hot] are the hot configs
	ops      []int // index into requests, one per operation
}

// serveConfig is the one run shape simd_serve submits; requests differ only
// by seed. It mirrors serveRequest field for field.
func serveConfig(seed int64) refer.RunConfig {
	cfg := paperConfig(refer.SystemREFER, scenario.Params{Seed: seed, Sensors: 200, MaxSpeed: 3})
	cfg.Warmup, cfg.Duration = 5*time.Second, 30*time.Second
	return cfg
}

func serveRequest(seed int64) simd.RunRequest {
	return simd.RunRequest{System: refer.SystemREFER, Seed: seed, Sensors: 200, MaxSpeed: 3, WarmupS: 5, DurationS: 30}
}

func newServePlan(g *generator) (*servePlan, error) {
	ops, hot := serveOps, serveHot
	if g.smoke {
		ops, hot = 200, 8
	}
	p := &servePlan{hot: hot}
	add := func() error {
		cfgs, err := g.feasible(func(seed int64) []refer.RunConfig {
			return []refer.RunConfig{serveConfig(seed)}
		})
		if err != nil {
			return err
		}
		req := serveRequest(cfgs[0].Scenario.Seed)
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		p.requests = append(p.requests, req)
		p.bodies = append(p.bodies, body)
		return nil
	}
	for i := 0; i < hot; i++ {
		if err := add(); err != nil {
			return nil, err
		}
	}
	// Exactly one operation in twenty misses, so the executed work does not
	// vary with the seed; only which operations miss does.
	for i := 0; i < ops; i++ {
		if i%20 != 0 {
			p.ops = append(p.ops, g.rng.Intn(hot))
			continue
		}
		if err := add(); err != nil {
			return nil, err
		}
		p.ops = append(p.ops, len(p.requests)-1)
	}
	g.rng.Shuffle(len(p.ops), func(i, j int) { p.ops[i], p.ops[j] = p.ops[j], p.ops[i] })
	return p, nil
}

// startServer boots an in-process refer-simd behind a loopback HTTP listener
// and returns once /healthz answers 200.
func startServer() (*simd.Server, *httptest.Server, error) {
	srv := simd.New(simd.Config{Workers: serveWorkers, QueueDepth: serveQueue})
	ts := httptest.NewServer(srv)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, nil, err
	}
	return srv, ts, nil
}

// serveOnce is one repetition of simd_serve on a fresh server. Set-up boots
// the daemon and runs every hot config once, so the timed operations meet a
// filled cache; its duration is one setup_s sample. Then the clients drain
// the plan, each operation timed from its POST to the last byte of its
// result. The server's own counters are returned too (they include set-up).
func serveOnce(p *servePlan) (rep repetition, setupS float64, m simd.Metrics, err error) {
	setupStart := time.Now()
	srv, ts, err := startServer()
	if err != nil {
		return rep, 0, m, err
	}
	defer srv.Close()
	defer ts.Close()

	// firstBody[i] is the first result body seen for request i; every later
	// fetch of the same config must return the same bytes (cached == fresh).
	firstBody := make([][]byte, len(p.requests))
	var mu sync.Mutex
	// drain works through ops with the closed loop's clients and folds each
	// operation into rep under the lock.
	drain := func(ops []int, rep *repetition) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ops) {
						return
					}
					idx := ops[i]
					start := time.Now()
					body, err := serveOp(ts.Client(), ts.URL, p.bodies[idx])
					ms := float64(time.Since(start)) / float64(time.Millisecond)
					mu.Lock()
					rep.attempted++
					switch {
					case err != nil:
						fmt.Fprintf(os.Stderr, "benchmark: operation %d failed: %v\n", i, err)
						rep.failed++
					case firstBody[idx] != nil && !bytes.Equal(firstBody[idx], body):
						fmt.Fprintf(os.Stderr, "benchmark: operation %d: result differs from the first one served for its config\n", i)
						rep.failed++
					default:
						firstBody[idx] = body
						rep.opMs = append(rep.opMs, ms)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}

	hot := make([]int, p.hot)
	for i := range hot {
		hot[i] = i
	}
	var warm repetition
	drain(hot, &warm)
	if warm.failed > 0 {
		return rep, 0, m, fmt.Errorf("filling the cache: %d of %d hot configs failed", warm.failed, p.hot)
	}
	setupS = time.Since(setupStart).Seconds()
	warmEvents := srv.MetricsSnapshot().DESEvents

	rep = measured(func(rep *repetition) { drain(p.ops, rep) })
	m = srv.MetricsSnapshot()
	rep.events = m.DESEvents - warmEvents

	h := sha256.New()
	for _, body := range firstBody {
		if body == nil {
			continue // never fetched, or its operation failed and is already counted
		}
		h.Write(body)
		var res refer.Result
		if err := json.Unmarshal(body, &res); err != nil {
			return rep, setupS, m, fmt.Errorf("decoding a served result: %w", err)
		}
		rep.sim.add(res)
		rep.results = append(rep.results, res)
	}
	rep.digest = hex.EncodeToString(h.Sum(nil))
	return rep, setupS, m, nil
}

// serveOp is one operation: submit, wait for the run to finish by reading
// its event stream to EOF unless the submission was already done, then fetch
// the result.
func serveOp(client *http.Client, base string, body []byte) ([]byte, error) {
	resp, err := client.Post(base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /runs: HTTP %d", resp.StatusCode)
	}
	var sub simd.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, err
	}
	if sub.State != simd.StateDone {
		if _, err := get(client, base+"/runs/"+sub.ID+"/events"); err != nil {
			return nil, err
		}
	}
	return get(client, base+"/runs/"+sub.ID+"/result")
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return data, nil
}

// servedMatchesRun compares the first few served results with in-process
// refer.Run on the same configs: the daemon must serve what the library
// computes.
func servedMatchesRun(p *servePlan, rep repetition) bool {
	ok := true
	for i := 0; i < 4 && i < len(rep.results); i++ {
		want, err := refer.Run(serveConfig(p.requests[i].Seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: reference run failed: %v\n", err)
			ok = false
			continue
		}
		want.Stats = want.Stats.StripWallClock()
		if !reflect.DeepEqual(want, rep.results[i]) {
			fmt.Fprintf(os.Stderr, "benchmark: served result %d differs from refer.Run\n", i)
			ok = false
		}
	}
	return ok
}
