package des

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	mustAt := func(at time.Duration, fn func()) {
		t.Helper()
		if _, err := s.At(at, fn); err != nil {
			t.Fatal(err)
		}
	}
	mustAt(3*time.Second, func() { got = append(got, 3) })
	mustAt(1*time.Second, func() { got = append(got, 1) })
	mustAt(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
	if s.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", s.Fired())
	}
}

func TestSchedulerFIFOAtSameTimestamp(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(time.Second, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-timestamp events out of FIFO order: %v", got)
	}
}

func TestSchedulePastFails(t *testing.T) {
	var s Scheduler
	if _, err := s.At(time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if _, err := s.At(500*time.Millisecond, func() {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
	if _, err := s.At(time.Second, func() {}); err != nil {
		t.Fatalf("scheduling at exactly now should succeed: %v", err)
	}
}

func TestNilEventFails(t *testing.T) {
	var s Scheduler
	if _, err := s.At(0, nil); err == nil {
		t.Fatal("nil event should fail")
	}
}

func TestAfterNegativeDelayCoerced(t *testing.T) {
	var s Scheduler
	ran := false
	if _, err := s.After(-time.Second, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var s Scheduler
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			if _, err := s.After(time.Second, recurse); err != nil {
				t.Errorf("nested schedule: %v", err)
			}
		}
	}
	if _, err := s.After(time.Second, recurse); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		at := at
		if _, err := s.At(at, func() { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want deadline 3s", s.Now())
	}
	if s.Pending() == 0 {
		t.Fatal("event beyond deadline should still be pending")
	}
	s.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %v after second run", fired)
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s (advanced to deadline)", s.Now())
	}
}

func TestStepOnEmpty(t *testing.T) {
	var s Scheduler
	if s.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var s Scheduler
		rng := rand.New(rand.NewSource(seed))
		var log []time.Duration
		var spawn func()
		spawn = func() {
			log = append(log, s.Now())
			if len(log) < 200 {
				delay := time.Duration(rng.Intn(1000)) * time.Millisecond
				if _, err := s.After(delay, spawn); err != nil {
					t.Fatalf("spawn: %v", err)
				}
				if rng.Intn(3) == 0 {
					if _, err := s.After(delay/2, func() { log = append(log, s.Now()) }); err != nil {
						t.Fatalf("spawn extra: %v", err)
					}
				}
			}
		}
		if _, err := s.After(0, spawn); err != nil {
			t.Fatal(err)
		}
		s.Run()
		return log
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestManyEventsStress(t *testing.T) {
	var s Scheduler
	rng := rand.New(rand.NewSource(5))
	const n = 50000
	fired := 0
	var last time.Duration
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(int64(time.Hour)))
		if _, err := s.At(at, func() {
			if s.Now() < last {
				t.Error("clock went backwards")
			}
			last = s.Now()
			fired++
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if fired != n {
		t.Fatalf("fired = %d, want %d", fired, n)
	}
}

// firing is one firing of a scheduled entry: its timestamp, the index of
// the entry in scheduling order, and the firing's number within an AtN run.
type firing struct {
	at     time.Duration
	id, of int
}

// popReference removes from pending, which is in scheduling order, the
// firing the ordering contract runs next — the earliest timestamp, the first
// scheduled among ties — and returns it.
func popReference(pending *[]firing) firing {
	p := *pending
	min := 0
	for j := range p {
		if p[j].at < p[min].at {
			min = j
		}
	}
	r := p[min]
	*pending = append(p[:min], p[min+1:]...)
	return r
}

func sameFirings(t *testing.T, got, want []firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v (heap order must match the reference)", i, got[i], want[i])
		}
	}
}

// TestInterleavedStepsPreserveOrdering fires events between schedules, so
// root pops interleave with pushes, and checks every firing against the
// reference order.
func TestInterleavedStepsPreserveOrdering(t *testing.T) {
	var s Scheduler
	rng := rand.New(rand.NewSource(42))
	var pending, want, got []firing
	for i := 0; i < 500; i++ {
		i, at := i, s.Now()+time.Duration(rng.Intn(50))*time.Second
		if _, err := s.At(at, func() { got = append(got, firing{at: at, id: i}) }); err != nil {
			t.Fatal(err)
		}
		pending = append(pending, firing{at: at, id: i})
		if rng.Intn(3) == 0 {
			s.Step()
			want = append(want, popReference(&pending))
		}
	}
	for len(pending) > 0 {
		want = append(want, popReference(&pending))
	}
	s.Run()
	sameFirings(t, got, want)
}

// TestRunUntilLimitBatches drives a window in bounded batches and checks
// the loop is exactly equivalent to one RunUntil call.
func TestRunUntilLimitBatches(t *testing.T) {
	var batched, straight Scheduler
	load := func(s *Scheduler) *[]time.Duration {
		var fired []time.Duration
		for i := 1; i <= 10; i++ {
			at := time.Duration(i) * time.Second
			if _, err := s.At(at, func() { fired = append(fired, s.Now()) }); err != nil {
				t.Fatal(err)
			}
		}
		return &fired
	}
	bf := load(&batched)
	sf := load(&straight)

	batches := 0
	for batched.RunUntilLimit(7*time.Second, 3) {
		batches++
	}
	batches++
	straight.RunUntil(7 * time.Second)

	if batches != 3 { // 3 + 3 + 1 events
		t.Fatalf("batches = %d, want 3", batches)
	}
	if len(*bf) != len(*sf) || len(*bf) != 7 {
		t.Fatalf("fired %d batched vs %d straight, want 7", len(*bf), len(*sf))
	}
	if batched.Now() != straight.Now() || batched.Now() != 7*time.Second {
		t.Fatalf("clocks: batched %v, straight %v, want 7s", batched.Now(), straight.Now())
	}
	if batched.Pending() != 3 || straight.Pending() != 3 {
		t.Fatalf("pending: batched %d, straight %d, want 3", batched.Pending(), straight.Pending())
	}
}

// TestRunUntilLimitMidBatchClock checks the clock is not prematurely
// advanced to the deadline while events remain in the window.
func TestRunUntilLimitMidBatchClock(t *testing.T) {
	var s Scheduler
	for i := 1; i <= 4; i++ {
		at := time.Duration(i) * time.Second
		if _, err := s.At(at, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if more := s.RunUntilLimit(10*time.Second, 2); !more {
		t.Fatal("events remain but RunUntilLimit reported done")
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("mid-batch clock = %v, want 2s", s.Now())
	}
	if more := s.RunUntilLimit(10*time.Second, 0); more {
		t.Fatal("unbounded batch should finish the window")
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("final clock = %v, want 10s", s.Now())
	}
}

// TestQueueRetainsNoFiredCallback checks that the heap slice is the
// queue's only storage and keeps nothing it has fired: a long schedule/fire
// churn, AtN runs included, bounds its capacity by the peak pending count,
// and after Run every slot up to that capacity has a nil fn, so no fired
// closure stays reachable from the scheduler.
func TestQueueRetainsNoFiredCallback(t *testing.T) {
	var s Scheduler
	fn := func() {}
	for i := 0; i < 1000; i++ {
		if _, err := s.After(time.Duration(i)*time.Millisecond, fn); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := s.AtN(s.Now()+time.Duration(i)*time.Microsecond, 3, fn); err != nil {
				t.Fatal(err)
			}
		}
		for s.Pending() > 8 {
			s.Step()
		}
	}
	s.Run()
	if c := cap(s.heap); c > 16 {
		t.Fatalf("heap capacity grew to %d entries; churn is not reusing slots", c)
	}
	for i, ev := range s.heap[:cap(s.heap)] {
		if ev.fn != nil {
			t.Fatalf("heap slot %d still holds a callback after Run", i)
		}
	}
	if s.Fired() != 1600 {
		t.Fatalf("Fired = %d, want 1600", s.Fired())
	}
}

// TestSchedulerChurnAllocFree is the scheduler's allocation guard: a
// steady-state schedule/fire mix must allocate nothing once the heap slice
// has grown to the peak pending count.
func TestSchedulerChurnAllocFree(t *testing.T) {
	var s Scheduler
	fn := func() {}
	// Warm the heap slice.
	for i := 0; i < 256; i++ {
		if _, err := s.After(time.Duration(i)*time.Microsecond, fn); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.After(time.Duration(i%7)*time.Microsecond, fn); err != nil {
			t.Fatal(err)
		}
		if _, err := s.After(time.Duration(i%13)*time.Microsecond, fn); err != nil {
			t.Fatal(err)
		}
		s.Step()
		s.Step()
		i++
	})
	if allocs != 0 {
		t.Fatalf("schedule/fire churn allocates %.1f objects per op, want 0", allocs)
	}
	// The windowed loop every run drains through must be as free as Step.
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := s.At(s.Now()+time.Duration(i%7)*time.Microsecond, fn); err != nil {
			t.Fatal(err)
		}
		s.RunUntilLimit(s.Now()+10*time.Microsecond, 4)
		i++
	})
	if allocs != 0 {
		t.Fatalf("RunUntilLimit churn allocates %.1f objects per op, want 0", allocs)
	}
}

// heapOrdered reports whether every queued entry is ordered after its
// parent — the invariant an AtN run firing in place at the root relies on.
func heapOrdered(s *Scheduler) bool {
	for i := 1; i < len(s.heap); i++ {
		if eventLess(&s.heap[i], &s.heap[(i-1)/4]) {
			return false
		}
	}
	return true
}

// atNScenario schedules one workload on s, logging every firing with the
// clock and Fired count it saw and whether the heap was still ordered. The
// same-instant batches go through batch, with At calls at their instant
// before and after them, an earlier event, a one-firing batch, a batch
// scheduled from inside an event, and a batch firing that schedules events
// at now and later.
func atNScenario(t *testing.T, s *Scheduler, batch func(at time.Duration, n int, fn func())) []string {
	t.Helper()
	var log []string
	note := func(label string) func() {
		return func() {
			log = append(log, fmt.Sprintf("%s @%v #%d ordered %t", label, s.Now(), s.Fired(), heapOrdered(s)))
		}
	}
	at := func(when time.Duration, fn func()) {
		t.Helper()
		if _, err := s.At(when, fn); err != nil {
			t.Fatal(err)
		}
	}
	at(2*time.Second, note("before"))
	at(time.Second, note("early"))
	k := 0
	batch(2*time.Second, 4, func() {
		k++
		note(fmt.Sprintf("batch %d", k))()
		if k == 2 {
			at(s.Now(), note("spawned at now"))
			at(s.Now()+time.Millisecond, note("spawned later"))
		}
	})
	at(2*time.Second, note("after"))
	batch(2*time.Second, 1, note("single"))
	at(3*time.Second, func() {
		note("outer")()
		batch(s.Now(), 3, note("nested"))
		at(s.Now(), note("after nested"))
	})
	s.Run()
	return append(log, fmt.Sprintf("end @%v #%d pending %d", s.Now(), s.Fired(), s.Pending()))
}

// TestAtNMatchesRepeatedAt pins AtN's contract: n firings of one entry are
// indistinguishable from n back-to-back At calls — same order against the
// events around them, same clock, same Fired count at every firing.
func TestAtNMatchesRepeatedAt(t *testing.T) {
	var ref, got Scheduler
	want := atNScenario(t, &ref, func(at time.Duration, n int, fn func()) {
		for i := 0; i < n; i++ {
			if _, err := ref.At(at, fn); err != nil {
				t.Fatal(err)
			}
		}
	})
	have := atNScenario(t, &got, func(at time.Duration, n int, fn func()) {
		if err := got.AtN(at, n, fn); err != nil {
			t.Fatal(err)
		}
	})
	if len(have) != len(want) {
		t.Fatalf("AtN log has %d lines, repeated At %d:\n%v\n%v", len(have), len(want), have, want)
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("line %d: AtN %q, repeated At %q", i, have[i], want[i])
		}
	}
}

func TestAtNErrors(t *testing.T) {
	var s Scheduler
	fn := func() {}
	for _, n := range []int{0, -1} {
		if err := s.AtN(time.Second, n, fn); err == nil {
			t.Fatalf("AtN with n = %d should fail", n)
		}
	}
	if err := s.AtN(time.Second, 2, nil); err == nil {
		t.Fatal("AtN with a nil fn should fail")
	}
	if s.Pending() != 0 {
		t.Fatalf("failed AtN calls left %d entries", s.Pending())
	}
	if _, err := s.At(time.Second, fn); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.AtN(500*time.Millisecond, 2, fn); err == nil {
		t.Fatal("AtN in the past should fail")
	}
	if err := s.AtN(time.Second, 2, fn); err != nil {
		t.Fatalf("AtN at exactly now should succeed: %v", err)
	}
}

// TestAtNPendingCountsOneEntry pins what Pending reports for a run: one
// entry from scheduling to the start of its last firing, inside the
// non-final firings too, and none once the last one has begun.
func TestAtNPendingCountsOneEntry(t *testing.T) {
	var s Scheduler
	var seen []int
	if err := s.AtN(time.Second, 3, func() { seen = append(seen, s.Pending()) }); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after AtN(n = 3), want 1", s.Pending())
	}
	s.Run()
	if want := []int{1, 1, 0}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("Pending inside the firings = %v, want %v", seen, want)
	}
	if s.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", s.Fired())
	}
}

// FuzzDESOrdering pins the heap's pop order against a reference: for any
// fuzzed schedule, events pop in strictly ascending (timestamp, sequence)
// order and same-timestamp events preserve insertion order. runMask turns
// some entries into AtN runs, which the reference expands into n
// consecutive firings; stepMask fires one event right after some schedules,
// so root pops, AtN runs firing in place included, interleave with pushes.
func FuzzDESOrdering(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(3), uint8(0x5a))
	f.Add([]byte{255, 1, 255, 1, 128, 7, 9}, uint8(5), uint8(0xff))
	f.Add([]byte{0, 3, 0, 0, 200, 1, 0, 0, 9, 0}, uint8(0xff), uint8(0x33))
	f.Fuzz(func(t *testing.T, ats []byte, stepMask, runMask uint8) {
		if len(ats) > 256 {
			ats = ats[:256]
		}
		var s Scheduler
		var pending, want, got []firing
		for i, b := range ats {
			i, at := i, s.Now()+time.Duration(b)*time.Millisecond
			if runMask&(1<<(i%8)) != 0 {
				n, of := 1+(i+int(b))%5, 0
				if err := s.AtN(at, n, func() { got = append(got, firing{at: at, id: i, of: of}); of++ }); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < n; k++ {
					pending = append(pending, firing{at: at, id: i, of: k})
				}
			} else {
				if _, err := s.At(at, func() { got = append(got, firing{at: at, id: i}) }); err != nil {
					t.Fatal(err)
				}
				pending = append(pending, firing{at: at, id: i})
			}
			if stepMask&(1<<(i%8)) != 0 {
				s.Step()
				want = append(want, popReference(&pending))
			}
		}
		for len(pending) > 0 {
			want = append(want, popReference(&pending))
		}
		s.Run()
		sameFirings(t, got, want)
		if s.Fired() != uint64(len(want)) {
			t.Fatalf("Fired = %d after %d firings", s.Fired(), len(want))
		}
	})
}
