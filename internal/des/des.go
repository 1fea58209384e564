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
// The queue is a concrete 4-ary min-heap of event values rather than
// container/heap over an interface: no per-event boxing, no interface
// method dispatch in the sift loops, and no per-event allocation — the
// heap slice is the only storage, so the steady-state schedule/fire cycle
// allocates nothing once it has grown to the peak pending count. Events
// cannot be cancelled: no protocol takes a scheduled event back. Execution
// order is a pure function of (timestamp, sequence) — the heap arity is
// invisible to replay. AtN schedules n same-instant firings of one callback
// as a single queue entry that fires in place at the root, so a broadcast's
// receptions cost one entry, not n.
package des

import (
	"fmt"
	"math"
	"time"
)

// event is a scheduled callback, held by value in the heap.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	rest uint32 // firings left after the next one (AtN); 0 for At
}

// Scheduler owns the virtual clock and event queue. The zero value is
// ready to use. Scheduler is not safe for concurrent use; the simulator is
// single-threaded by design.
type Scheduler struct {
	now   time.Duration
	seq   uint64
	heap  []event
	fired uint64
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of queue entries. An AtN run is one entry
// until its last firing: it counts 1, also inside a non-final firing.
func (s *Scheduler) Pending() int { return len(s.heap) }

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) is an error — a simulation bug worth failing loudly on.
func (s *Scheduler) At(at time.Duration, fn func()) (Handle, error) {
	return Handle{}, s.AtN(at, 1, fn)
}

// AtN schedules fn to run n times at absolute virtual time at, exactly as n
// back-to-back calls to At would: the run reserves n consecutive sequence
// numbers, and each firing is one event to the ordering contract and to
// Fired. It holds a single queue entry, not n.
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
	s.heap = append(s.heap, event{at: at, seq: s.seq, fn: fn, rest: uint32(n - 1)})
	s.seq += uint64(n)
	s.siftUp(len(s.heap) - 1)
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

// Step executes the single next event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	root := &s.heap[0]
	s.now = root.at
	s.fired++
	if root.rest > 0 {
		// A non-final firing of an AtN run fires in place. Every other
		// entry, including any fn schedules at now, has a larger (at, seq)
		// than every number the run reserved, so the entry stays at the
		// root without touching its seq.
		root.rest--
		root.fn()
		return true
	}
	// Pop before running: fn may schedule new events.
	s.pop()()
	return true
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event lies beyond deadline, then advances the clock to the
// deadline unless it is already later: the clock finishes at the deadline
// also when the last event fired earlier or none fired.
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
	for executed := 0; limit <= 0 || executed < limit; executed++ {
		if len(s.heap) == 0 || s.heap[0].at > deadline {
			// The window is done: finish the clock like RunUntil.
			if s.now < deadline {
				s.now = deadline
			}
			return false
		}
		s.Step()
	}
	return len(s.heap) > 0 && s.heap[0].at <= deadline
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// ---- concrete 4-ary min-heap on (at, seq) ----
//
// A 4-ary layout halves the tree height of a binary heap; the extra
// sibling comparisons happen on adjacent 32-byte entries, which is a good
// trade for the pop-heavy workload of a DES.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pop removes the root and returns its callback. The vacated tail slot is
// zeroed, so the queue retains no fired callback.
func (s *Scheduler) pop() func() {
	fn := s.heap[0].fn
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap[n] = event{}
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return fn
}

// siftUp moves the event at i toward the root until its parent is not
// larger.
func (s *Scheduler) siftUp(i int) {
	ev := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(&ev, &s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = ev
}

// siftDown moves the event at i toward the leaves until no child is
// smaller.
func (s *Scheduler) siftDown(i int) {
	ev := s.heap[i]
	n := len(s.heap)
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
			if eventLess(&s.heap[c], &s.heap[min]) {
				min = c
			}
		}
		if !eventLess(&s.heap[min], &ev) {
			break
		}
		s.heap[i] = s.heap[min]
		i = min
	}
	s.heap[i] = ev
}

// ---- benchmark/ compatibility block ----
//
// What is left of the deleted batched drain's scheduling surface and of
// cancellation, kept only because benchmark/ compiles against it and
// benchmark/ changes in benchmark-only PRs. Handle is the empty first result
// of At, After and AtTagged; nothing reads it. Delete the block, and make At
// and After return only the error, with the des.tagged_fire_ns probe in the
// next benchmark-only PR.
type (
	Handle   struct{}
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
