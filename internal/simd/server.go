// Package simd implements refer-simd, the simulation-as-a-service daemon:
// a long-lived HTTP/JSON front end over the experiment API. Clients POST a
// run configuration (or a registered figure build) and get a run ID back;
// they poll or stream status, fetch the Result/RunStats/figure CSV, and can
// cancel mid-run. The serving layer exploits the repo's determinism
// guarantees end to end:
//
//   - a bounded worker-pool queue applies backpressure (429 + Retry-After)
//     instead of accepting unbounded work;
//   - a content-addressed LRU cache keyed on the canonicalized config+seed
//     (experiment.ConfigKey) serves identical submissions without re-running
//     — replay determinism makes the cached Result byte-identical to a
//     fresh run once host timing is stripped; a figure build is cached as
//     the Table it was projected from (experiment.TableKey), so every
//     figure of the same grid and options is served from one entry;
//   - identical in-flight submissions are coalesced onto one execution;
//   - all concurrent runs share the process-wide immutable Kautz route
//     tables (kautz.TableFor), each built once by its first caller;
//   - GET /metrics exposes queue depth, cache hit rate, runs in flight and
//     aggregate DES throughput.
package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"refer/internal/experiment"
	"refer/internal/recovery"
)

// Run states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Run kinds.
const (
	KindRun    = "run"
	KindFigure = "figure"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of concurrent simulation executions
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-run queue; a full queue rejects
	// submissions with 429 (default 64).
	QueueDepth int
	// CacheSize bounds the content-addressed result cache (default 512).
	CacheSize int
	// RetainRuns bounds how many terminal run records are kept for status
	// queries; the oldest are pruned beyond it (default 16384).
	RetainRuns int
	// FigureParallelism is the per-figure sweep parallelism when a
	// FigureRequest does not name its own (default 1: a figure build
	// occupies one worker slot, so its internal fan-out multiplies).
	FigureParallelism int
	// Log receives request and lifecycle lines; nil is silent.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 512
	}
	if c.RetainRuns <= 0 {
		c.RetainRuns = 16384
	}
	if c.FigureParallelism <= 0 {
		c.FigureParallelism = 1
	}
	return c
}

// run is one tracked submission. key is its public content address and
// in-flight identity; cacheKey addresses what executing it computes — the
// same key for a single run, the TableKey of the figure's grid for a figure.
type run struct {
	id       string
	kind     string
	key      string
	cacheKey string
	figureID string

	cfg     experiment.RunConfig
	figOpts experiment.Options

	mu          sync.Mutex
	state       string
	cached      bool
	cancelled   bool // cancellation requested
	cancel      context.CancelFunc
	progress    experiment.RunProgress
	hasProgress bool
	sweep       experiment.ProgressEvent
	hasSweep    bool
	result      *experiment.Result
	table       *experiment.Table // figure runs: projected through figureID at read time
	errMsg      string
	submitted   time.Time
	started     time.Time // zero until a worker picks the run up
	finished    time.Time
	lastPush    time.Time
	subs        map[chan []byte]struct{}
}

// terminalLocked reports whether the run reached a final state.
func (r *run) terminalLocked() bool {
	return r.state == StateDone || r.state == StateFailed || r.state == StateCancelled
}

// Server is the refer-simd daemon core; it implements http.Handler.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	ctx       context.Context
	cancelAll context.CancelFunc
	queue     chan *run
	workers   sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   int
	runs     map[string]*run
	order    []string        // submission order, for listing and pruning
	inflight map[string]*run // canonical key → queued/running run
	cache    *resultCache
	// metrics holds every counter /metrics reports, stepped under mu in the
	// same critical sections that move runs between states; MetricsSnapshot
	// adds the gauges and rates. busy sums the wall time of executed runs.
	metrics Metrics
	busy    time.Duration

	// runSingle executes one simulation; indirected so tests can install
	// deterministic blocking or failing runs.
	runSingle func(ctx context.Context, cfg experiment.RunConfig, onProgress func(experiment.RunProgress)) (experiment.Result, error)
	// buildTable runs the sweep behind one registered figure; indirected for
	// tests.
	buildTable func(ctx context.Context, figureID string, o experiment.Options) (experiment.Table, error)
}

// New starts a server: Config.Workers executor goroutines draining the
// bounded run queue. Call Close to stop them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		start:      time.Now(),
		ctx:        ctx,
		cancelAll:  cancel,
		queue:      make(chan *run, cfg.QueueDepth),
		runs:       make(map[string]*run),
		inflight:   make(map[string]*run),
		cache:      newResultCache(cfg.CacheSize),
		runSingle:  experiment.RunObserved,
		buildTable: experiment.BuildTable,
	}
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting submissions, cancels queued and running work, and
// waits for the workers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	s.workers.Wait()
	// Finish anything still queued (workers are gone).
	s.mu.Lock()
	pending := make([]*run, 0)
	for _, r := range s.runs {
		pending = append(pending, r)
	}
	s.mu.Unlock()
	for _, r := range pending {
		s.finish(r, StateCancelled, nil, nil, context.Canceled)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) { s.mux.ServeHTTP(w, req) }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /systems", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, experiment.KnownSystems())
	})
	s.mux.HandleFunc("GET /figures", s.handleFigureList)
	s.mux.HandleFunc("POST /runs", s.handleSubmitRun)
	s.mux.HandleFunc("POST /figures/{fig}/runs", s.handleSubmitFigure)
	s.mux.HandleFunc("GET /runs", s.handleRunList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRunStatus)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleRunCancel)
	s.mux.HandleFunc("GET /runs/{id}/result", s.handleRunResult)
	s.mux.HandleFunc("GET /runs/{id}/stats", s.handleRunStats)
	s.mux.HandleFunc("GET /runs/{id}/csv", s.handleRunCSV)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleRunEvents)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ---- submission ----

// maxBodyBytes caps a submission body; the largest legitimate one is a chaos
// schedule of a few hundred events.
const maxBodyBytes = 1 << 20

// decodeBody decodes a capped JSON submission into v and answers the request
// itself when it cannot. Unknown fields are refused: ignoring a misspelt name
// would run, and cache, the default config under the caller's intent.
func decodeBody(w http.ResponseWriter, req *http.Request, v any, emptyOK bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil || emptyOK && errors.Is(err, io.EOF) {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "decoding request: %v", err)
	return false
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, req *http.Request) {
	var rr RunRequest
	if !decodeBody(w, req, &rr, false) {
		return
	}
	cfg, err := rr.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid run request: %v", err)
		return
	}
	key, err := experiment.ConfigKey(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid run request: %v", err)
		return
	}
	s.submit(w, &run{kind: KindRun, key: key, cacheKey: key, cfg: cfg})
}

func (s *Server) handleSubmitFigure(w http.ResponseWriter, req *http.Request) {
	figID := req.PathValue("fig")
	if _, ok := experiment.FigureByID(figID); !ok {
		writeError(w, http.StatusNotFound, "unknown figure %q", figID)
		return
	}
	var fr FigureRequest
	// An empty body is a valid figure submission (all fields defaulted).
	if !decodeBody(w, req, &fr, true) {
		return
	}
	opts, err := fr.Options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid figure request: %v", err)
		return
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = s.cfg.FigureParallelism
	}
	key, err := experiment.OptionsKey(figID, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid figure request: %v", err)
		return
	}
	// OptionsKey accepted the options, so TableKey — the same canonical form
	// under the grid's name — does too.
	tableKey, _ := experiment.TableKey(figID, opts)
	s.submit(w, &run{kind: KindFigure, key: key, cacheKey: tableKey, figureID: figID, figOpts: opts})
}

// submit routes one run: cache hit → immediate done record (for a figure,
// whichever figure of its grid computed the table); identical in-flight
// submission → join it; otherwise a queue slot or 429.
func (s *Server) submit(w http.ResponseWriter, r *run) {
	s.mu.Lock()
	s.metrics.Submitted++
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if ent, ok := s.cache.get(r.cacheKey); ok {
		s.metrics.CacheHits++
		r.mu.Lock()
		r.id = s.registerLocked(r)
		r.state = StateDone
		r.cached = true
		r.result, r.table = ent.result, ent.table
		r.submitted = time.Now()
		r.finished = r.submitted
		r.mu.Unlock()
		s.mu.Unlock()
		s.logf("%s %s cache hit (%s)", r.id, r.kind, shortKey(r.key))
		writeJSON(w, http.StatusOK, SubmitResponse{ID: r.id, Key: r.key, State: StateDone, Cached: true})
		return
	}
	if ex, ok := s.inflight[r.key]; ok {
		s.metrics.Deduped++
		ex.mu.Lock()
		state := ex.state
		ex.mu.Unlock()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, SubmitResponse{ID: ex.id, Key: r.key, State: state, Deduped: true})
		return
	}
	// Initialize under r.mu before the run lands on the queue: a worker may
	// pop it (and lock r.mu) the instant the send succeeds.
	r.mu.Lock()
	select {
	case s.queue <- r:
		s.metrics.CacheMisses++
		r.id = s.registerLocked(r)
		r.state = StateQueued
		r.submitted = time.Now()
		s.inflight[r.key] = r
		r.mu.Unlock()
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: r.id, Key: r.key, State: StateQueued})
	default:
		r.mu.Unlock()
		s.metrics.Rejected++
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"run queue full (%d pending); retry after ~%ds", s.cfg.QueueDepth, retry)
	}
}

// registerLocked assigns the next run ID, tracks the record, and prunes the
// oldest terminal records beyond the retention bound. Caller holds s.mu.
func (s *Server) registerLocked(r *run) string {
	s.nextID++
	id := fmt.Sprintf("r-%06d", s.nextID)
	s.runs[id] = r
	s.order = append(s.order, id)
	for len(s.order) > s.cfg.RetainRuns {
		oldest := s.runs[s.order[0]]
		if oldest != nil {
			oldest.mu.Lock()
			terminal := oldest.terminalLocked()
			oldest.mu.Unlock()
			if !terminal {
				break // never evict live work
			}
			delete(s.runs, s.order[0])
		}
		s.order = s.order[1:]
	}
	return id
}

// retryAfterLocked estimates seconds until a queue slot frees: pending work
// over worker throughput, from the observed mean run time.
func (s *Server) retryAfterLocked() int {
	avg := 2.0 // optimistic default before any completion
	if n := s.metrics.Completed; n > 0 {
		avg = s.busy.Seconds() / float64(n)
	}
	est := avg * float64(len(s.queue)+1) / float64(s.cfg.Workers)
	switch {
	case est < 1:
		return 1
	case est > 600:
		return 600
	default:
		return int(est + 0.5)
	}
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// ---- execution ----

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case r := <-s.queue:
			s.execute(r)
		}
	}
}

func (s *Server) execute(r *run) {
	s.mu.Lock()
	r.mu.Lock()
	if r.cancelled || r.terminalLocked() {
		terminal := r.terminalLocked()
		r.mu.Unlock()
		s.mu.Unlock()
		if !terminal {
			s.finish(r, StateCancelled, nil, nil, context.Canceled)
		}
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	r.cancel = cancel
	r.state = StateRunning
	r.started = time.Now()
	s.metrics.RunsInFlight++
	r.mu.Unlock()
	s.mu.Unlock()
	defer cancel()

	var (
		res experiment.Result
		tab experiment.Table
		err error
	)
	switch r.kind {
	case KindRun:
		res, err = s.runSingle(ctx, r.cfg, func(p experiment.RunProgress) { s.noteProgress(r, p) })
	case KindFigure:
		opts := r.figOpts
		opts.Progress = func(ev experiment.ProgressEvent) { s.noteSweep(r, ev) }
		tab, err = s.buildTable(ctx, r.figureID, opts)
	}

	r.mu.Lock()
	cancelled := r.cancelled
	r.mu.Unlock()
	switch {
	case err == nil && r.kind == KindRun:
		s.finish(r, StateDone, &res, nil, nil)
	case err == nil:
		s.finish(r, StateDone, nil, &tab, nil)
	case cancelled || errors.Is(err, context.Canceled):
		s.finish(r, StateCancelled, nil, nil, err)
	default:
		s.finish(r, StateFailed, nil, nil, err)
	}
}

// finish moves a run to a terminal state, updates the counters, the cache and
// the inflight index in one critical section, then publishes the terminal
// event and releases subscribers. Idempotent: the first caller wins. Lock
// order is s.mu → r.mu throughout the server; callers must hold neither.
func (s *Server) finish(r *run, state string, res *experiment.Result, tab *experiment.Table, err error) {
	s.mu.Lock()
	r.mu.Lock()
	if r.terminalLocked() {
		r.mu.Unlock()
		s.mu.Unlock()
		return
	}
	r.state = state
	r.finished = time.Now()
	if !r.started.IsZero() {
		s.metrics.RunsInFlight--
		s.busy += r.finished.Sub(r.started)
	}
	if err != nil {
		r.errMsg = err.Error()
	}
	if s.inflight[r.key] == r {
		delete(s.inflight, r.key)
	}
	switch state {
	case StateDone:
		// The one place an outcome becomes terminal and cached: its host half
		// is dropped, so the stored bytes equal any replay's by this binary, and
		// its work half (DES events) and sim half (recovery) are folded into
		// /metrics before anyone can see the run as done.
		switch {
		case res != nil:
			res.Stats = res.Stats.StripWallClock()
			s.metrics.fold(res.Stats.DESEvents, res.Stats.Recovery)
		case tab != nil:
			tab.StripWallClock()
			s.metrics.fold(tab.Stats.DESEvents, tab.Stats.Recovery)
		}
		r.result, r.table = res, tab
		s.cache.put(&cacheEntry{key: r.cacheKey, result: res, table: tab})
		s.metrics.Completed++
	case StateFailed:
		s.metrics.Failed++
	case StateCancelled:
		s.metrics.Cancelled++
	}
	line, lineErr := json.Marshal(r.statusLocked())
	subs := r.subs
	r.subs = nil
	r.mu.Unlock()
	s.mu.Unlock()

	for ch := range subs {
		if lineErr == nil {
			// Best effort: a gone subscriber re-reads the final status after
			// the channel close below.
			select {
			case ch <- line:
			default:
			}
		}
		close(ch)
	}
	s.logf("%s %s %s (%s)", r.id, r.kind, state, shortKey(r.key))
}

// noteProgress records a single run's progress and pushes a throttled
// status event to stream subscribers.
func (s *Server) noteProgress(r *run, p experiment.RunProgress) {
	r.mu.Lock()
	r.progress = p
	r.hasProgress = true
	if time.Since(r.lastPush) >= 100*time.Millisecond {
		r.lastPush = time.Now()
		pushLocked(r)
	}
	r.mu.Unlock()
}

// noteSweep records a figure run's sweep progress (one event per completed
// simulation; the sweep delivers them from one goroutine, in order).
func (s *Server) noteSweep(r *run, ev experiment.ProgressEvent) {
	r.mu.Lock()
	r.sweep = ev
	r.hasSweep = true
	if ev.Done == ev.Total || time.Since(r.lastPush) >= 100*time.Millisecond {
		r.lastPush = time.Now()
		pushLocked(r)
	}
	r.mu.Unlock()
}

// pushLocked sends the current status snapshot to every subscriber without
// blocking (slow consumers drop intermediate events; the terminal status is
// re-read by the handler after channel close). Caller holds r.mu.
func pushLocked(r *run) {
	if len(r.subs) == 0 {
		return
	}
	line, err := json.Marshal(r.statusLocked())
	if err != nil {
		return
	}
	for ch := range r.subs {
		select {
		case ch <- line:
		default:
		}
	}
}

// statusLocked snapshots the run as its wire status. Caller holds r.mu.
func (r *run) statusLocked() RunStatus {
	st := RunStatus{
		ID:          r.id,
		Kind:        r.kind,
		Key:         r.key,
		State:       r.state,
		Figure:      r.figureID,
		Cached:      r.cached,
		Error:       r.errMsg,
		SubmittedAt: r.submitted.UTC().Format(time.RFC3339Nano),
	}
	if r.terminalLocked() {
		st.WallSeconds = r.finished.Sub(r.submitted).Seconds()
	}
	if r.hasProgress {
		st.Progress = &ProgressStatus{
			SimTimeS:  r.progress.SimTime.Seconds(),
			SimEndS:   r.progress.SimEnd.Seconds(),
			Fraction:  r.progress.Fraction(),
			DESEvents: r.progress.DESEvents,
		}
	}
	if r.hasSweep {
		st.Sweep = &SweepStatus{
			Done:    r.sweep.Done,
			Total:   r.sweep.Total,
			Aborted: r.sweep.Aborted,
			System:  r.sweep.System,
			Seed:    r.sweep.Seed,
			X:       r.sweep.X,
		}
		if r.sweep.Err != nil {
			st.Sweep.Error = r.sweep.Err.Error()
		}
	}
	return st
}

// ---- queries ----

func (s *Server) lookup(w http.ResponseWriter, req *http.Request) *run {
	s.mu.Lock()
	r := s.runs[req.PathValue("id")]
	s.mu.Unlock()
	if r == nil {
		writeError(w, http.StatusNotFound, "unknown run %q", req.PathValue("id"))
	}
	return r
}

func (s *Server) handleRunStatus(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	r.mu.Lock()
	st := r.statusLocked()
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleRunList(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	out := make([]RunStatus, 0, len(s.order))
	for _, id := range s.order {
		if r := s.runs[id]; r != nil {
			r.mu.Lock()
			out = append(out, r.statusLocked())
			r.mu.Unlock()
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRunCancel(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	r.mu.Lock()
	queued := false
	var cancel context.CancelFunc
	switch {
	case r.terminalLocked():
		// Nothing to do.
	case r.state == StateQueued:
		r.cancelled = true
		queued = true
	default:
		r.cancelled = true
		cancel = r.cancel
	}
	r.mu.Unlock()
	if queued {
		// The worker that eventually pops this run observes cancelled and
		// finishes it too, but finish is idempotent so racing is fine.
		s.finish(r, StateCancelled, nil, nil, context.Canceled)
	}
	if cancel != nil {
		cancel()
	}
	r.mu.Lock()
	st := r.statusLocked()
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// requireDone returns the run if it completed successfully, else writes the
// appropriate status: 404 unknown, 409 not finished / failed.
func (s *Server) requireDone(w http.ResponseWriter, req *http.Request) *run {
	r := s.lookup(w, req)
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateDone {
		writeError(w, http.StatusConflict, "run %s is %s", r.id, r.state)
		return nil
	}
	return r
}

func (s *Server) handleRunResult(w http.ResponseWriter, req *http.Request) {
	r := s.requireDone(w, req)
	if r == nil {
		return
	}
	r.mu.Lock()
	res := r.result
	r.mu.Unlock()
	if res == nil {
		writeError(w, http.StatusConflict, "run %s is a figure build; fetch /runs/%s/csv", r.id, r.id)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRunStats(w http.ResponseWriter, req *http.Request) {
	r := s.requireDone(w, req)
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.result != nil:
		writeJSON(w, http.StatusOK, r.result.Stats)
	case r.table != nil:
		writeJSON(w, http.StatusOK, r.table.Stats)
	}
}

func (s *Server) handleRunCSV(w http.ResponseWriter, req *http.Request) {
	r := s.requireDone(w, req)
	if r == nil {
		return
	}
	r.mu.Lock()
	tab := r.table
	r.mu.Unlock()
	if tab == nil {
		writeError(w, http.StatusConflict, "run %s is a single run; fetch /runs/%s/result", r.id, r.id)
		return
	}
	spec, _ := experiment.FigureByID(r.figureID) // registered: checked at submission
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(tab.Figure(spec).CSV()))
}

func (s *Server) handleRunEvents(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	r.mu.Lock()
	first, err := json.Marshal(r.statusLocked())
	terminal := r.terminalLocked()
	var ch chan []byte
	if !terminal {
		ch = make(chan []byte, 32)
		if r.subs == nil {
			r.subs = make(map[chan []byte]struct{})
		}
		r.subs[ch] = struct{}{}
	}
	r.mu.Unlock()
	if err != nil {
		return
	}
	writeLine := func(line []byte) bool {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !writeLine(first) || terminal {
		return
	}
	defer func() {
		r.mu.Lock()
		delete(r.subs, ch)
		r.mu.Unlock()
	}()
	for {
		select {
		case <-req.Context().Done():
			return
		case line, ok := <-ch:
			if !ok {
				// Stream closed on terminal transition: emit final status.
				r.mu.Lock()
				last, err := json.Marshal(r.statusLocked())
				r.mu.Unlock()
				if err == nil {
					writeLine(last)
				}
				return
			}
			if !writeLine(line) {
				return
			}
		}
	}
}

func (s *Server) handleFigureList(w http.ResponseWriter, _ *http.Request) {
	type figJSON struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Kind  string `json:"kind"`
	}
	specs := experiment.Figures()
	out := make([]figJSON, 0, len(specs))
	for _, spec := range specs {
		out = append(out, figJSON{ID: spec.ID, Title: spec.Title, Kind: spec.Kind.String()})
	}
	writeJSON(w, http.StatusOK, out)
}

// fold adds one executed outcome's deterministic counters to the totals.
func (m *Metrics) fold(desEvents uint64, rec recovery.Stats) {
	m.DESEvents += desEvents
	m.RecoveryReelections += uint64(rec.Reelections)
	m.RecoveryMerges += uint64(rec.Merges)
	m.RecoveryTakeovers += uint64(rec.Takeovers)
	m.RecoveryLatencyNs += rec.LatencyNs
}

// MetricsSnapshot assembles the current serving metrics: the counters as of
// one instant, plus gauges, rates and the shared route tables.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	m := s.metrics
	m.CacheEntries = s.cache.len()
	m.RunsTracked = len(s.runs)
	s.mu.Unlock()
	m.UptimeSeconds = time.Since(s.start).Seconds()
	m.Workers = s.cfg.Workers
	m.QueueDepth = len(s.queue)
	m.QueueCapacity = s.cfg.QueueDepth
	if total := m.CacheHits + m.CacheMisses; total > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(total)
	}
	if m.UptimeSeconds > 0 {
		m.DESEventsPerSec = float64(m.DESEvents) / m.UptimeSeconds
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
