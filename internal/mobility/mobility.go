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
	"math/rand"
	"time"

	"refer/internal/geo"
)

// Model yields a node's position at any virtual time.
type Model interface {
	// At returns the node's position at time t. Calls must use
	// non-decreasing t across the life of the model; the random-waypoint
	// model lazily extends its itinerary as the clock advances.
	At(t time.Duration) geo.Point
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

// MaxSpeed implements SpeedBounded: a static node never moves.
func (s Static) MaxSpeed() float64 { return 0 }

// leg is one waypoint segment of a random-waypoint itinerary.
type leg struct {
	start    time.Duration
	from     geo.Point
	to       geo.Point
	duration time.Duration
}

// Waypoint is a random-waypoint mover: pick a uniform destination in the
// region, move there at a uniform speed in [0, MaxSpeed], repeat.
// The itinerary is generated lazily and deterministically from the model's
// own RNG, so two runs with the same seed produce identical motion.
type Waypoint struct {
	region   geo.Rect
	maxSpeed float64 // m/s
	rng      *rand.Rand
	legs     []leg
}

// NewWaypoint creates a random-waypoint model starting at start.
// maxSpeed <= 0 degenerates to a static node at start.
func NewWaypoint(region geo.Rect, start geo.Point, maxSpeed float64, rng *rand.Rand) *Waypoint {
	w := &Waypoint{region: region, maxSpeed: maxSpeed, rng: rng}
	w.legs = append(w.legs, leg{start: 0, from: start, to: start, duration: 0})
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
func (w *Waypoint) At(t time.Duration) geo.Point {
	last := &w.legs[len(w.legs)-1]
	for t >= last.start+last.duration {
		w.extend()
		last = &w.legs[len(w.legs)-1]
	}
	// Find the active leg; in the common case it is the last or near-last,
	// so scan backwards.
	for i := len(w.legs) - 1; i >= 0; i-- {
		l := w.legs[i]
		if t >= l.start {
			if l.duration == 0 {
				return l.to
			}
			frac := float64(t-l.start) / float64(l.duration)
			return l.from.Lerp(l.to, frac)
		}
	}
	return w.legs[0].from
}

// extend appends the next itinerary leg.
func (w *Waypoint) extend() {
	last := w.legs[len(w.legs)-1]
	at := last.to
	begin := last.start + last.duration
	if w.maxSpeed <= 0 {
		w.legs = append(w.legs, leg{start: begin, from: at, to: at, duration: dwellTime})
		return
	}
	dest := w.region.RandomPoint(w.rng)
	speed := w.rng.Float64() * w.maxSpeed
	if speed < minLegSpeed {
		w.legs = append(w.legs, leg{start: begin, from: at, to: at, duration: dwellTime})
		return
	}
	dist := at.Dist(dest)
	dur := time.Duration(dist / speed * float64(time.Second))
	if dur <= 0 {
		dur = time.Millisecond
	}
	w.legs = append(w.legs, leg{start: begin, from: at, to: dest, duration: dur})
	// Bound memory for very long runs: drop legs that ended before the new
	// leg begins (the clock never steps back behind it).
	if len(w.legs) > 64 {
		cut := 0
		for cut < len(w.legs)-1 && w.legs[cut].start+w.legs[cut].duration < begin {
			cut++
		}
		if cut > 0 {
			w.legs = append(w.legs[:0], w.legs[cut:]...)
		}
	}
}
