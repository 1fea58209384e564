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
	// MaxSpeed returns an upper bound on the node's speed in m/s. The
	// simulator uses it to quantize spatial-index rebuilds: a world whose
	// models all report 0 never rebuilds its index, and a finite bound
	// turns "rebuild on every clock advance" into "rebuild once per
	// staleness epoch" (see the world package).
	MaxSpeed() float64
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

// Static is an immobile node (actuators, or sensors with MaxSpeed 0).
type Static struct {
	P geo.Point
}

// At implements Model.
func (s Static) At(time.Duration) geo.Point { return s.P }

// Leg implements Model: one pause from time 0 that never ends.
func (s Static) Leg(time.Duration) Leg { return Leg{Duration: math.MaxInt64, From: s.P, To: s.P} }

// MaxSpeed implements Model: a static node never moves.
func (s Static) MaxSpeed() float64 { return 0 }

// step is a leg as the look-ahead buffer stores it: it starts where and
// when the leg before it ends.
type step struct {
	to       geo.Point
	duration time.Duration
}

// lookahead is how many legs one refill draws.
const lookahead = 8

// Draws is the scratch generator the random-waypoint movers of one world
// share. A mover owns no generator state, only a seed and the count of
// source outputs its legs have consumed; a refill positions Draws that many
// outputs into the seed's stream and draws on, so every mover sees exactly
// the stream a private rand.NewSource(seed) would give it. The first rngTap
// outputs of a stream are computed straight from the seed; past them Draws
// reseeds a math/rand source of its own in place and skips the consumed
// outputs. Draws is not safe for concurrent use: each world needs its own.
type Draws struct {
	src stream
	rng *rand.Rand
}

// NewDraws returns a scratch generator for the movers of one world.
func NewDraws() *Draws {
	d := &Draws{src: stream{fallback: rand.NewSource(0)}}
	d.rng = rand.New(&d.src)
	return d
}

// replay positions the generator n outputs into seed's stream.
func (d *Draws) replay(seed int64, n uint64) *rand.Rand {
	d.src.seek(seed, n)
	return d.rng
}

// math/rand's generator is an additive lagged-Fibonacci register of rngLen
// words; output k (from 1) adds word 334-k to word 607-k, indices mod
// rngLen, and stores the sum in the first. Seeding fills word i from a
// Lehmer chain x_n = 48271^n·x_0 mod (2^31-1) as
// (x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}) ^ cooked[i], so the first
// rngTap outputs, which read only freshly seeded words, need six table
// multiplies each instead of Seed's 1 841 chain steps.
const (
	rngLen    = 607
	rngTap    = 273
	lehmerMod = 1<<31 - 1
)

var (
	lehmerPow [21 + 3*rngLen]uint64 // lehmerPow[n] = 48271^n mod lehmerMod
	cooked    [rngLen]uint64        // math/rand's rngCooked from word rngLen-2·rngTap on
)

// init fills lehmerPow and recovers cooked by inverting rand.NewSource(1)'s
// first rngLen outputs: output k adds a fresh word to output k-rngTap for
// k > rngLen-rngTap, and two fresh words for k <= rngTap.
func init() {
	lehmerPow[0] = 1
	for n := 1; n < len(lehmerPow); n++ {
		lehmerPow[n] = lehmerPow[n-1] * 48271 % lehmerMod
	}
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	for k := rngLen - rngTap + 1; k <= rngLen; k++ {
		cooked[2*rngLen-rngTap-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		cooked[rngLen-rngTap-k] = out[k] - cooked[rngLen-k]
	}
	for i := rngLen - 2*rngTap; i < rngLen; i++ {
		cooked[i] ^= chainWord(1, i)
	}
}

// chainWord is the Lehmer-chain half of register word i for chain start x0.
func chainWord(x0 uint64, i int) uint64 {
	n := 21 + 3*i
	return lehmerPow[n]*x0%lehmerMod<<40 ^ lehmerPow[n+1]*x0%lehmerMod<<20 ^ lehmerPow[n+2]*x0%lehmerMod
}

// stream is a rand.Source that yields rand.NewSource(seed)'s outputs from
// any position.
type stream struct {
	x0       uint64 // seed as math/rand normalises it: the chain's start
	n        uint64 // outputs consumed
	fallback rand.Source
	synced   bool // fallback is n outputs into the stream
}

// seek positions the stream n outputs into seed's.
func (s *stream) seek(seed int64, n uint64) {
	s.n, s.synced = n, false
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// Seed implements rand.Source.
func (s *stream) Seed(seed int64) { s.seek(seed, 0) }

// Int63 implements rand.Source.
func (s *stream) Int63() int64 {
	s.n++
	if k := int(s.n); k <= rngTap {
		a, b := rngLen-rngTap-k, rngLen-k
		out := (chainWord(s.x0, a) ^ cooked[a]) + (chainWord(s.x0, b) ^ cooked[b])
		return int64(out &^ (1 << 63))
	}
	if !s.synced {
		s.fallback.Seed(int64(s.x0)) // math/rand maps x0 to itself
		for i := uint64(1); i < s.n; i++ {
			s.fallback.Int63()
		}
		s.synced = true
	}
	return s.fallback.Int63()
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

// MaxSpeed implements Model: leg speeds are drawn uniformly from
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
