// Package des is a deterministic discrete-event scheduler: a virtual clock
// and a priority queue of timestamped callbacks. Everything in the WSAN
// simulator — packet receptions, MAC backoffs, mobility-driven maintenance
// probes, failure injection, traffic generation — is an event on this
// queue. Determinism is guaranteed by breaking timestamp ties with a
// monotone sequence number, so runs with the same seed replay identically.
//
// Ordering contract: events execute in strictly ascending (timestamp,
// sequence) order. Same-timestamp events run in insertion order — the
// sequence number is assigned at scheduling time and never reused — so a
// producer that schedules A then B at the same instant always observes A
// before B. This is a load-bearing guarantee, and FuzzDESOrdering pins the
// heap's pop order against a reference sort.
//
// The queue is a concrete 4-ary min-heap over pooled event structs rather
// than container/heap over an interface: no per-event boxing, no interface
// method dispatch in the sift loops, and fired or cancelled events return
// to a free list, so the steady-state schedule/fire cycle allocates
// nothing. Execution order is a pure function of (timestamp, sequence) —
// the heap arity and the pooling are invisible to replay. AtN schedules n
// same-instant firings of one callback as a single queue entry that fires
// in place at the root, so a broadcast's receptions cost one entry, not n.
package des

import (
	"fmt"
	"math"
	"time"
)

// event is a scheduled callback. Events are pooled: when one fires or is
// cancelled it returns to the scheduler's free list and its generation is
// bumped, which invalidates any Handle still pointing at it.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	gen  uint32
	idx  int32  // position in the heap; -1 when not queued
	rest uint32 // firings left after the one seq names (AtN); 0 for At
}

// Handle lets a scheduled event be cancelled before it fires. The handle
// captures the event's generation, so a handle kept past its event's firing
// can never cancel the pooled struct's next occupant.
type Handle struct {
	s   *Scheduler
	ev  *event
	gen uint32
}

// Cancel prevents the event from running and removes it from the queue
// immediately (O(log n) via the heap index), so Pending() stays accurate
// and long runs with many cancelled maintenance timers do not retain dead
// events until their timestamps drain. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if h.s == nil || h.ev == nil || h.ev.gen != h.gen {
		return false
	}
	h.s.remove(int(h.ev.idx))
	h.s.release(h.ev)
	return true
}

// Scheduler owns the virtual clock and event queue. The zero value is
// ready to use. Scheduler is not safe for concurrent use; the simulator is
// single-threaded by design.
type Scheduler struct {
	now    time.Duration
	seq    uint64
	heap   []*event
	free   []*event
	fired  uint64
	halted bool
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of queue entries. Cancelled events are
// removed eagerly, so they never inflate the count. An AtN run is one entry
// until its last firing: it counts 1, also inside a non-final firing.
func (s *Scheduler) Pending() int { return len(s.heap) }

// NextAt peeks at the earliest pending event's timestamp without executing
// it. ok is false when nothing is pending. It tells self-rescheduling
// protocol timers (the queue never drains) apart from genuinely outstanding
// work within a window.
func (s *Scheduler) NextAt() (at time.Duration, ok bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) is an error — a simulation bug worth failing loudly on.
func (s *Scheduler) At(at time.Duration, fn func()) (Handle, error) {
	if at < s.now {
		return Handle{}, fmt.Errorf("des: schedule at %v before now %v", at, s.now)
	}
	if fn == nil {
		return Handle{}, fmt.Errorf("des: nil event function")
	}
	ev := s.alloc()
	ev.at = at
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.push(ev)
	return Handle{s: s, ev: ev, gen: ev.gen}, nil
}

// AtN schedules fn to run n times at absolute virtual time at, exactly as n
// back-to-back calls to At would: the run reserves n consecutive sequence
// numbers, and each firing is one event to the ordering contract and to
// Fired. It holds a single queue entry, not n, and cannot be cancelled.
func (s *Scheduler) AtN(at time.Duration, n int, fn func()) error {
	if n <= 0 || int64(n-1) > math.MaxUint32 {
		return fmt.Errorf("des: %d firings requested, want 1 to 2^32", n)
	}
	if at < s.now {
		return fmt.Errorf("des: schedule at %v before now %v", at, s.now)
	}
	if fn == nil {
		return fmt.Errorf("des: nil event function")
	}
	ev := s.alloc()
	ev.at = at
	ev.seq = s.seq
	ev.fn = fn
	ev.rest = uint32(n - 1)
	s.seq += uint64(n)
	s.push(ev)
	return nil
}

// After schedules fn to run delay after the current time. Negative delays
// are coerced to zero (run "immediately", after already-queued events at
// the same timestamp).
func (s *Scheduler) After(delay time.Duration, fn func()) (Handle, error) {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// Halt stops Run/RunUntil after the current event completes.
func (s *Scheduler) Halt() { s.halted = true }

// Step executes the single next event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	ev := s.heap[0]
	s.now = ev.at
	if ev.rest > 0 {
		// A non-final firing of an AtN run fires in place. Every other
		// entry, including any fn schedules at now, has a larger (at, seq)
		// than the run's next number, so the entry stays at the root.
		ev.rest--
		ev.seq++
		s.fired++
		ev.fn()
		return true
	}
	s.remove(0)
	fn := ev.fn
	// Release before running: fn may schedule new events, and the freshest
	// pool entry is the one most likely to be cache-hot.
	s.release(ev)
	s.fired++
	fn()
	return true
}

// RunUntil executes events in timestamp order until the queue is empty, the
// scheduler is halted, or the next event lies beyond deadline. The clock
// finishes at min(deadline, last event time); if the queue drains early the
// clock is advanced to the deadline.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.RunUntilLimit(deadline, 0)
}

// RunUntilLimit is RunUntil with a batch bound: at most limit events are
// executed (limit <= 0 means unbounded). It reports whether events at or
// before deadline remain — i.e. whether another batch is needed. Callers use
// it to interleave simulation with host-side work such as context
// cancellation checks; looping until it returns false is exactly
// RunUntil(deadline), including advancing the clock to the deadline once the
// window's events are exhausted.
func (s *Scheduler) RunUntilLimit(deadline time.Duration, limit int) bool {
	s.halted = false
	executed := 0
	for !s.halted && (limit <= 0 || executed < limit) {
		if len(s.heap) == 0 || s.heap[0].at > deadline {
			// The window is done: finish the clock like RunUntil.
			if s.now < deadline {
				s.now = deadline
			}
			return false
		}
		s.Step()
		executed++
	}
	if s.halted {
		return false
	}
	return len(s.heap) > 0 && s.heap[0].at <= deadline
}

// Run executes events until the queue is empty or Halt is called.
func (s *Scheduler) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// ---- event pool ----

// alloc takes an event struct from the free list, or mints a new one when
// the pool is dry. The pool never shrinks; its high-water mark is the
// scheduler's peak pending count.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{idx: -1}
}

// release returns a fired or cancelled event to the pool. Bumping the
// generation invalidates every outstanding Handle to it.
func (s *Scheduler) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.idx = -1
	s.free = append(s.free, ev)
}

// ---- concrete 4-ary min-heap on (at, seq) ----
//
// A 4-ary layout halves the tree height of a binary heap; the extra
// sibling comparisons happen on one cache line of *event pointers, which
// is a good trade for the pop-heavy workload of a DES.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and restores the heap property.
func (s *Scheduler) push(ev *event) {
	s.heap = append(s.heap, ev)
	ev.idx = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
}

// remove deletes the event at heap position i.
func (s *Scheduler) remove(i int) {
	n := len(s.heap) - 1
	ev := s.heap[i]
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	if i < n {
		s.heap[i] = last
		last.idx = int32(i)
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
	ev.idx = -1
}

// siftUp moves the event at i toward the root until its parent is not
// larger.
func (s *Scheduler) siftUp(i int) {
	ev := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(ev, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heap[i].idx = int32(i)
		i = parent
	}
	s.heap[i] = ev
	ev.idx = int32(i)
}

// siftDown moves the event at i toward the leaves until no child is
// smaller, reporting whether it moved.
func (s *Scheduler) siftDown(i int) bool {
	ev := s.heap[i]
	n := len(s.heap)
	moved := false
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(s.heap[c], s.heap[min]) {
				min = c
			}
		}
		if !eventLess(s.heap[min], ev) {
			break
		}
		s.heap[i] = s.heap[min]
		s.heap[i].idx = int32(i)
		i = min
		moved = true
	}
	s.heap[i] = ev
	ev.idx = int32(i)
	return moved
}

// ---- benchmark/ compatibility block ----
//
// What is left of the deleted batched drain's scheduling surface, kept only
// because benchmark/probes.go compiles against it and benchmark/ changes in
// benchmark-only PRs. No caller outside benchmark/. Delete with the
// des.tagged_fire_ns probe in the next benchmark-only PR.
type (
	Domain   uint64
	Claims   [4]Domain
	PrepFunc func(worker int, at time.Duration, claims Claims, arg0, arg1 int32)
)

// SetDrainParallelism is a no-op: the serial loop is the only scheduler path.
func (s *Scheduler) SetDrainParallelism(int) {}

// AtTagged is At; the tags are ignored.
func (s *Scheduler) AtTagged(at time.Duration, _ Claims, _ PrepFunc, _, _ int32, fn func()) (Handle, error) {
	return s.At(at, fn)
}
