package main

import (
	"fmt"
	"os"
	"time"

	"refer"
	"refer/internal/chaos"
	"refer/internal/core"
	"refer/internal/energy"
	"refer/internal/metrics"
	"refer/internal/recovery"
	"refer/internal/scenario"
	"refer/internal/world"
)

// The span pass measures layers from outside: this file repeats
// experiment.Run's loop using only public functions and records a span
// around each call into a layer. What it cannot see — radio completions and
// forwarding continuations that fire inside Sched.RunUntil — is left as the
// drain's self time. The driver is only trusted because its deterministic
// counters are compared with refer.Run's on every config it runs.

type spanKind uint8

const (
	spanWholeRun spanKind = iota
	spanScenarioBuild
	spanSystemBuild
	spanAttach
	spanWarmupDrain
	spanWindowDrain
	spanMaintain
	spanInject
	spanSetFailed
	spanKinds
)

// span is one timed interval; parent is the index of the span that was open
// when it began (-1 for a root), which is the span that caused it because
// the simulator is single-threaded.
type span struct {
	parent     int32
	kind       spanKind
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; totals folds them when the pass ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(kind spanKind) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: parent, kind: kind, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// spanTotals is the folded span pass: per kind the summed duration and the
// span count, plus the drains' self time (their duration minus the part
// their direct child spans cover).
type spanTotals struct {
	seconds   [spanKinds]float64
	count     [spanKinds]int
	drainSelf float64
}

func (t *tracer) totals() spanTotals {
	var out spanTotals
	isDrain := func(k spanKind) bool { return k == spanWarmupDrain || k == spanWindowDrain }
	for _, s := range t.spans {
		d := (s.end - s.start).Seconds()
		out.seconds[s.kind] += d
		out.count[s.kind]++
		if isDrain(s.kind) {
			out.drainSelf += d
		}
		if s.parent >= 0 && isDrain(t.spans[s.parent].kind) {
			out.drainSelf -= d
		}
	}
	return out
}

// runCounters are the deterministic outputs the driver and refer.Run must
// agree on for the same config.
type runCounters struct {
	DESEvents                        uint64
	Created, Delivered, QoS, Dropped int
	CommEnergy, ConstructionEnergy   float64
}

func countersOf(r refer.Result) runCounters {
	return runCounters{
		DESEvents: r.Stats.DESEvents,
		Created:   r.Created, Delivered: r.Delivered, QoS: r.QoS, Dropped: r.Dropped,
		CommEnergy: r.CommEnergy, ConstructionEnergy: r.ConstructionEnergy,
	}
}

// spanRun executes one fully specified config (see paperConfig) under t.
func spanRun(cfg refer.RunConfig, t *tracer) (runCounters, error) {
	root := t.begin(spanWholeRun)
	defer t.end(root)

	id := t.begin(spanScenarioBuild)
	w, err := buildWorld(cfg)
	t.end(id)
	if err != nil {
		return runCounters{}, err
	}

	id = t.begin(spanSystemBuild)
	sys, err := newSystem(cfg.System, w, true)
	if err == nil {
		err = sys.Build()
	}
	t.end(id)
	if err != nil {
		return runCounters{}, err
	}
	// The REFER family was built with its own tick off; arm ours at the
	// point Build would have armed it, so event sequence numbers — and with
	// them every tie-break — match refer.Run's.
	cs, _ := sys.(*core.System)
	if cs != nil {
		interval := core.DefaultConfig().ProbeInterval
		var tick func()
		tick = func() {
			m := t.begin(spanMaintain)
			cs.MaintainOnce()
			t.end(m)
			mustAfter(w, interval, tick)
		}
		mustAfter(w, interval, tick)
	}

	id = t.begin(spanAttach)
	err = attach(cfg, w, cs)
	t.end(id)
	if err != nil {
		return runCounters{}, err
	}

	collector := metrics.NewCollector(cfg.Warmup, cfg.Warmup+cfg.Duration, cfg.QoSDeadline)
	end := cfg.Warmup + cfg.Duration
	sensors := scenario.SensorIDs(w)

	// Traffic: every BurstInterval, Sources random alive sensors each emit
	// PacketsPerSource packets toward their nearby actuator.
	var burst func()
	burst = func() {
		if w.Now() > end {
			return
		}
		for i := 0; i < cfg.Sources; i++ {
			src := sensors[w.Rand().Intn(len(sensors))]
			if !w.Node(src).Alive() {
				continue
			}
			for p := 0; p < cfg.PacketsPerSource; p++ {
				if _, err := w.AfterNode(time.Duration(p)*cfg.PacketSpacing, src, func() {
					created := w.Now()
					collector.Created(created)
					in := t.begin(spanInject)
					sys.Inject(src, func(ok bool) {
						if ok {
							collector.Delivered(created, w.Now())
						} else {
							collector.Dropped(created)
						}
					})
					t.end(in)
				}); err != nil {
					panic(err)
				}
			}
		}
		mustAfter(w, cfg.BurstInterval, burst)
	}
	mustAfter(w, cfg.BurstInterval, burst)

	// Fault injection: rotate the faulty sensor set.
	if cfg.FaultCount > 0 {
		setFailed := func(id world.NodeID, failed bool) {
			sf := t.begin(spanSetFailed)
			w.SetFailed(id, failed)
			t.end(sf)
		}
		var current []world.NodeID
		var rotate func()
		rotate = func() {
			if w.Now() > end {
				return
			}
			for _, id := range current {
				setFailed(id, false)
			}
			current = current[:0]
			for len(current) < cfg.FaultCount && len(current) < len(sensors) {
				id := sensors[w.Rand().Intn(len(sensors))]
				already := false
				for _, c := range current {
					if c == id {
						already = true
						break
					}
				}
				if !already {
					current = append(current, id)
					setFailed(id, true)
				}
			}
			mustAfter(w, cfg.FaultRotation, rotate)
		}
		mustAfter(w, cfg.FaultRotation, rotate)
	}

	id = t.begin(spanWarmupDrain)
	w.Sched.RunUntil(cfg.Warmup)
	t.end(id)
	id = t.begin(spanWindowDrain)
	w.Sched.RunUntil(end + 2*time.Second) // grace for the window's tail
	t.end(id)

	created, delivered, qos, dropped := collector.Counts()
	return runCounters{
		DESEvents: w.Sched.Fired(),
		Created:   created, Delivered: delivered, QoS: qos, Dropped: dropped,
		CommEnergy:         w.TotalEnergy(energy.Communication),
		ConstructionEnergy: w.TotalEnergy(energy.Construction),
	}, nil
}

// attach mirrors experiment.Run's recovery and chaos wiring.
func attach(cfg refer.RunConfig, w *world.World, cs *core.System) error {
	spec := cfg.Recovery
	if spec.IsZero() && cfg.System == refer.SystemREFERRecovery {
		spec = recovery.Spec{Enabled: true}
	}
	if spec.Enabled && cs != nil {
		if _, err := recovery.Attach(w, cs, spec); err != nil {
			return err
		}
	}
	if cfg.Chaos != nil {
		if _, err := chaos.Attach(w, cfg.Chaos); err != nil {
			return err
		}
	}
	return nil
}

func mustAfter(w *world.World, delay time.Duration, fn func()) {
	if _, err := w.Sched.After(delay, fn); err != nil {
		panic(fmt.Sprintf("benchmark: scheduling after now: %v", err))
	}
}

// spanPass runs every config under one tracer and checks each against the
// counters refer.Run produced for it. It returns the folded spans, the wall
// time of the pass and the number of configs that disagreed.
func spanPass(cfgs []refer.RunConfig, want []refer.Result) (spanTotals, float64, int) {
	t := newTracer()
	start := time.Now()
	mismatches := 0
	for i, cfg := range cfgs {
		got, err := spanRun(cfg, t)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "benchmark: span driver: config %d failed: %v\n", i, err)
			mismatches++
		case i >= len(want) || got != countersOf(want[i]):
			fmt.Fprintf(os.Stderr, "benchmark: span driver: config %d (%s seed %d) disagrees with refer.Run:\n  driver    %+v\n", i, cfg.System, cfg.Scenario.Seed, got)
			if i < len(want) {
				fmt.Fprintf(os.Stderr, "  refer.Run %+v\n", countersOf(want[i]))
			}
			mismatches++
		}
	}
	return t.totals(), time.Since(start).Seconds(), mismatches
}
