package experiment

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"refer/internal/geo"
	"refer/internal/mobility"
	"refer/internal/scenario"
	"refer/internal/trace"
	"refer/internal/world"
)

// transposed mirrors a mobility model in the diagonal x = y: it swaps the
// coordinates of every position and every leg and keeps the speed bound.
// Both operations are exact in floating point, and so are the simulator's
// distance tests under the swap (dx² + dy² and math.Hypot are symmetric).
type transposed struct{ mobility.Model }

func swapXY(p geo.Point) geo.Point { return geo.Point{X: p.Y, Y: p.X} }

func (m transposed) At(t time.Duration) geo.Point { return swapXY(m.Model.At(t)) }

func (m transposed) Leg(t time.Duration) mobility.Leg {
	l := m.Model.Leg(t)
	l.From, l.To = swapXY(l.From), swapXY(l.To)
	return l
}

// buildTransposed is scenario.Build with every node mirrored in x = y. The
// square field, the sensed region and both actuator layouts map onto
// themselves, so the mirrored world is a deployment of the same scenario.
func buildTransposed(p scenario.Params) *world.World {
	w := scenario.Build(p)
	for _, n := range w.Nodes() {
		n.Mob = transposed{n.Mob}
	}
	return w
}

// mirrorRun is what the transpose oracle compares of one run: its Result
// without the host half, and the hash of its every traced event.
type mirrorRun struct {
	res   Result
	trace string
	err   error
}

// runMirrored runs every config with worlds from build, GOMAXPROCS at a time.
func runMirrored(build func(scenario.Params) *world.World, cfgs []RunConfig) []mirrorRun {
	orig := buildWorld
	buildWorld = build
	defer func() { buildWorld = orig }()
	out := make([]mirrorRun, len(cfgs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cfg := cfgs[i]
				rec := trace.NewRecorder(1)
				cfg.Trace = rec
				res, err := Run(cfg)
				res.Stats = res.Stats.StripWallClock()
				h := sha256.New()
				hashTrace(h, rec)
				out[i] = mirrorRun{res, fmt.Sprintf("%x", h.Sum(nil)), err}
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// TestTransposeInvariance requires every run to be identical in its mirror
// image. Nothing in the model has an orientation: positions are drawn
// independently of node IDs, every range test is a distance, and every tie
// is broken by NodeID. A decision that reads a coordinate, a grid cell or
// an index order instead shows up here as a run that differs from its
// transpose. The shape is 200 sensors over 20 s + 100 s, seeds 1–4, static
// and at 1.5 m/s, for every evaluated system, plus REFER/recovery on the
// 3×3 lattice with 0, 1 and 2 permanent actuator kills.
func TestTransposeInvariance(t *testing.T) {
	type named struct {
		system string
		cfg    RunConfig
	}
	var runs []named
	for _, sys := range AllSystems() {
		for _, speed := range []float64{0, 1.5} {
			for seed := int64(1); seed <= 4; seed++ {
				runs = append(runs, named{sys, RunConfig{
					System:   sys,
					Scenario: scenario.Params{Seed: seed, Sensors: 200, MaxSpeed: speed},
					Warmup:   20 * time.Second, Duration: 100 * time.Second,
				}})
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, kills := range [][]int{nil, {30}, {30, 45}} {
			runs = append(runs, named{"lattice", latticeCampaign(seed, kills...)})
		}
	}
	cfgs := make([]RunConfig, len(runs))
	for i, r := range runs {
		cfgs[i] = r.cfg
	}
	plain, mirrored := runMirrored(scenario.Build, cfgs), runMirrored(buildTransposed, cfgs)

	for i, r := range runs {
		a, b := plain[i], mirrored[i]
		if a.err != nil || b.err != nil {
			t.Fatalf("%s %+v: error %v, mirrored %v", r.system, r.cfg.Scenario, a.err, b.err)
		}
		if a.res != b.res || a.trace != b.trace {
			t.Errorf("%s %+v differs from its mirror image:\n%+v\n%+v\ntrace %s vs %s",
				r.system, r.cfg.Scenario, a.res, b.res, a.trace, b.trace)
		}
	}
}
