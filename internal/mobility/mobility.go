// Package mobility implements the node movement models of the evaluation:
// the random-waypoint model for sensors ("each sensor randomly selects a
// destination point and moves to that point with a speed randomly selected
// from [0,v] m/s", Section IV) and a static model for actuators.
//
// Positions are closed-form functions of the virtual clock, so the
// simulator never has to step positions: a Model answers At(t) exactly for
// any time, and the discrete-event core samples it on demand.
package mobility

import (
	"math"
	"math/rand"
	"time"

	"refer/internal/geo"
)

// Model yields a node's position at any virtual time.
type Model interface {
	// At returns the node's position at time t, for any t. The
	// random-waypoint model extends its itinerary lazily as t advances and
	// replays it from its seed when t steps back behind the active leg.
	At(t time.Duration) geo.Point
	// Leg returns the straight segment of the itinerary that contains t;
	// Leg(t).At(t) == At(t).
	Leg(t time.Duration) Leg
}

// Leg is one straight segment of an itinerary: the node moves from From at
// time Start to To at Start+Duration at constant velocity. A leg whose From
// equals To is a pause.
type Leg struct {
	Start    time.Duration
	Duration time.Duration
	From     geo.Point
	To       geo.Point
}

// Contains reports whether t falls inside the leg: Start <= t < Start+Duration.
func (l Leg) Contains(t time.Duration) bool { return t >= l.Start && t-l.Start < l.Duration }

// At returns the position at time t, which the leg must contain: the one
// interpolation formula of the package. A pause returns To as it is.
func (l Leg) At(t time.Duration) geo.Point {
	if l.From == l.To {
		return l.To
	}
	return l.From.Lerp(l.To, float64(t-l.Start)/float64(l.Duration))
}

// SpeedBounded is implemented by models that can bound how fast they move.
// The simulator uses the bound to quantize spatial-index rebuilds: a world
// whose models all report 0 never rebuilds its index, and a finite bound
// turns "rebuild on every clock advance" into "rebuild once per staleness
// epoch" (see the world package). Models that do not implement it are
// treated as unboundedly fast — always correct, never faster.
type SpeedBounded interface {
	// MaxSpeed returns an upper bound on the model's speed in m/s.
	MaxSpeed() float64
}

// Static is an immobile node (actuators, or sensors with MaxSpeed 0).
type Static struct {
	P geo.Point
}

// At implements Model.
func (s Static) At(time.Duration) geo.Point { return s.P }

// Leg implements Model: one pause from time 0 that never ends.
func (s Static) Leg(time.Duration) Leg { return Leg{Duration: math.MaxInt64, From: s.P, To: s.P} }

// MaxSpeed implements SpeedBounded: a static node never moves.
func (s Static) MaxSpeed() float64 { return 0 }

// step is a leg as the look-ahead buffer stores it: it starts where and
// when the leg before it ends.
type step struct {
	to       geo.Point
	duration time.Duration
}

// lookahead is how many legs one refill draws.
const lookahead = 16

// Draws is the scratch generator the random-waypoint movers of one world
// share. A mover owns no generator state, only a seed and the count of
// source outputs its legs have consumed; a refill reseeds Draws, skips that
// many outputs and draws on, so every mover sees exactly the stream a
// private generator seeded with its seed would give it. Draws is not safe
// for concurrent use: each world needs its own.
type Draws struct {
	src countingSource
	rng *rand.Rand
}

// countingSource counts the outputs drawn from it. Consumption is counted
// here rather than in Float64 calls because Float64 may draw twice.
type countingSource struct {
	rand.Source
	n uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.Source.Int63()
}

// NewDraws returns a scratch generator for the movers of one world.
func NewDraws() *Draws {
	d := &Draws{src: countingSource{Source: rand.NewSource(0)}}
	d.rng = rand.New(&d.src)
	return d
}

// replay positions the generator n outputs into seed's stream.
func (d *Draws) replay(seed int64, n uint64) *rand.Rand {
	d.rng.Seed(seed)
	for i := uint64(0); i < n; i++ {
		d.src.Source.Int63()
	}
	d.src.n = n
	return d.rng
}

// Waypoint is a random-waypoint mover: pick a uniform destination in the
// region, move there at a uniform speed in [0, MaxSpeed], repeat.
// The itinerary is a pure function of the seed, generated lazily
// lookahead legs at a time, so two runs with the same seed produce
// identical motion whatever order their movers are sampled in.
type Waypoint struct {
	region   geo.Rect
	maxSpeed float64 // m/s
	start    geo.Point
	seed     int64
	draws    *Draws
	drawn    uint64 // source outputs consumed by the legs generated so far
	cur      Leg    // the active leg: the only one Leg reads
	next     int    // index into ahead of the leg after cur; lookahead when empty
	ahead    [lookahead]step
}

// NewWaypoint creates a random-waypoint model starting at start whose legs
// are drawn from seed's stream on draws, the scratch generator shared by
// the movers of one world. maxSpeed <= 0 degenerates to a static node at
// start.
func NewWaypoint(region geo.Rect, start geo.Point, maxSpeed float64, seed int64, draws *Draws) *Waypoint {
	w := &Waypoint{region: region, maxSpeed: maxSpeed, start: start, seed: seed, draws: draws}
	w.rewind()
	return w
}

// minLegSpeed avoids division blow-ups for the near-zero speed draws the
// uniform [0, max] distribution produces: a node that draws ~0 m/s simply
// pauses (the leg is re-rolled as a dwell).
const minLegSpeed = 1e-3

// dwellTime is how long a node pauses when it draws a (near-)zero speed.
const dwellTime = 5 * time.Second

// MaxSpeed implements SpeedBounded: leg speeds are drawn uniformly from
// [0, maxSpeed], so maxSpeed bounds the mover's displacement rate.
func (w *Waypoint) MaxSpeed() float64 {
	if w.maxSpeed < 0 {
		return 0
	}
	return w.maxSpeed
}

// At implements Model.
func (w *Waypoint) At(t time.Duration) geo.Point { return w.Leg(t).At(t) }

// Leg implements Model. Every leg it returns has a positive duration.
func (w *Waypoint) Leg(t time.Duration) Leg {
	if t < w.cur.Start {
		w.rewind()
	}
	for t >= w.cur.Start+w.cur.Duration {
		w.advance()
	}
	return w.cur
}

// rewind restarts the itinerary at its zero-length opening leg.
func (w *Waypoint) rewind() {
	w.cur = Leg{From: w.start, To: w.start}
	w.drawn = 0
	w.next = lookahead
}

// advance makes the leg after the active one active.
func (w *Waypoint) advance() {
	if w.next == lookahead {
		w.refill()
	}
	s := w.ahead[w.next]
	w.next++
	w.cur = Leg{Start: w.cur.Start + w.cur.Duration, Duration: s.duration, From: w.cur.To, To: s.to}
}

// refill draws the lookahead legs that follow the active one.
func (w *Waypoint) refill() {
	rng := w.draws.replay(w.seed, w.drawn)
	at := w.cur.To
	for i := range w.ahead {
		w.ahead[i] = w.stepFrom(at, rng)
		at = w.ahead[i].to
	}
	w.drawn = w.draws.src.n
	w.next = 0
}

// stepFrom draws the itinerary leg that starts at at.
func (w *Waypoint) stepFrom(at geo.Point, rng *rand.Rand) step {
	if w.maxSpeed <= 0 {
		return step{to: at, duration: dwellTime}
	}
	dest := w.region.RandomPoint(rng)
	speed := rng.Float64() * w.maxSpeed
	if speed < minLegSpeed {
		return step{to: at, duration: dwellTime}
	}
	dist := at.Dist(dest)
	dur := time.Duration(dist / speed * float64(time.Second))
	if dur <= 0 {
		dur = time.Millisecond
	}
	return step{to: dest, duration: dur}
}
