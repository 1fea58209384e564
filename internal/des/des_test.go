package des

import (
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

func TestCancel(t *testing.T) {
	var s Scheduler
	ran := false
	h, err := s.After(time.Second, func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if !h.Cancel() {
		t.Fatal("first Cancel should report pending")
	}
	if h.Cancel() {
		t.Fatal("second Cancel should report not pending")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if s.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", s.Fired())
	}
}

func TestCancelAfterFire(t *testing.T) {
	var s Scheduler
	h, err := s.After(0, func() {})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if h.Cancel() {
		t.Fatal("cancelling a fired event should report not pending")
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

func TestHalt(t *testing.T) {
	var s Scheduler
	count := 0
	for i := 1; i <= 10; i++ {
		if _, err := s.At(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				s.Halt()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (halted)", count)
	}
	// Run resumes after a halt.
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10 after resume", count)
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

// TestCancelRemovesFromQueue checks that Cancel removes the event from the
// heap immediately: Pending() drops right away instead of retaining dead
// events until their timestamps drain.
func TestCancelRemovesFromQueue(t *testing.T) {
	var s Scheduler
	handles := make([]Handle, 0, 100)
	for i := 0; i < 100; i++ {
		h, err := s.At(time.Duration(i+1)*time.Second, func() {})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", s.Pending())
	}
	// Cancel a mix of head, middle and tail events.
	for _, i := range []int{0, 1, 13, 50, 98, 99} {
		if !handles[i].Cancel() {
			t.Fatalf("Cancel(%d) reported not pending", i)
		}
	}
	if s.Pending() != 94 {
		t.Fatalf("Pending after cancels = %d, want 94", s.Pending())
	}
	if at, ok := s.NextAt(); !ok || at != 3*time.Second {
		t.Fatalf("NextAt after cancelling the head = %v, %v, want 3s", at, ok)
	}
	// Double cancel stays a no-op and does not disturb the queue.
	if handles[50].Cancel() {
		t.Fatal("second Cancel should report not pending")
	}
	if s.Pending() != 94 {
		t.Fatalf("Pending after double cancel = %d, want 94", s.Pending())
	}
	s.Run()
	if s.Fired() != 94 {
		t.Fatalf("Fired = %d, want 94", s.Fired())
	}
	if s.Now() != 98*time.Second {
		t.Fatalf("Now = %v, want 98s (last live event)", s.Now())
	}
	if at, ok := s.NextAt(); ok {
		t.Fatalf("NextAt on a drained queue = %v, true", at)
	}
}

// TestCancelPreservesOrdering cancels interleaved events and checks the
// survivors still fire in (timestamp, seq) order.
func TestCancelPreservesOrdering(t *testing.T) {
	var s Scheduler
	rng := rand.New(rand.NewSource(42))
	type rec struct {
		at  time.Duration
		seq int
	}
	var fired []rec
	var handles []Handle
	var want []rec
	for i := 0; i < 500; i++ {
		i := i
		at := time.Duration(rng.Intn(50)) * time.Second
		h, err := s.At(at, func() { fired = append(fired, rec{at: at, seq: i}) })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		want = append(want, rec{at: at, seq: i})
	}
	cancelled := make(map[int]bool)
	for i := 0; i < 200; i++ {
		idx := rng.Intn(len(handles))
		if !cancelled[idx] {
			cancelled[idx] = true
			handles[idx].Cancel()
		}
	}
	kept := want[:0]
	for _, r := range want {
		if !cancelled[r.seq] {
			kept = append(kept, r)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].at < kept[j].at })
	s.Run()
	if len(fired) != len(kept) {
		t.Fatalf("fired %d events, want %d", len(fired), len(kept))
	}
	for i := range kept {
		if fired[i] != kept[i] {
			t.Fatalf("event %d = %+v, want %+v", i, fired[i], kept[i])
		}
	}
}

// TestCancelDuringRun cancels a pending event from inside an earlier event.
func TestCancelDuringRun(t *testing.T) {
	var s Scheduler
	ran := false
	victim, err := s.At(2*time.Second, func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(time.Second, func() {
		if !victim.Cancel() {
			t.Error("victim should still be pending")
		}
		if s.Pending() != 0 {
			t.Errorf("Pending inside event = %d, want 0", s.Pending())
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
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

// TestRunUntilLimitHalt checks Halt inside a batch stops it without
// advancing the clock to the deadline, like RunUntil.
func TestRunUntilLimitHalt(t *testing.T) {
	var s Scheduler
	if _, err := s.At(time.Second, func() { s.Halt() }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(2*time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	if more := s.RunUntilLimit(5*time.Second, 0); more {
		t.Fatal("halted batch reported more work")
	}
	if s.Now() != time.Second {
		t.Fatalf("halted clock = %v, want 1s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

// TestStaleHandleCannotCancelRecycledEvent pins the pool-safety guarantee:
// after an event fires, its struct returns to the free list and may back a
// brand-new event. A handle kept from the fired event must not cancel the
// recycled struct's new occupant.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	var s Scheduler
	stale, err := s.After(0, func() {})
	if err != nil {
		t.Fatal(err)
	}
	s.Run() // fires and releases the event struct

	ran := false
	fresh, err := s.After(time.Second, func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if stale.ev != fresh.ev {
		t.Skip("pool did not recycle the struct; nothing to guard against")
	}
	if stale.Cancel() {
		t.Fatal("stale handle cancelled the recycled event")
	}
	s.Run()
	if !ran {
		t.Fatal("recycled event did not run")
	}
}

// TestEventPoolReuse checks the free list actually recycles: a long
// schedule/fire churn keeps the live event population bounded by the peak
// pending count instead of growing with the number of events.
func TestEventPoolReuse(t *testing.T) {
	var s Scheduler
	fn := func() {}
	for i := 0; i < 1000; i++ {
		if _, err := s.After(time.Duration(i)*time.Millisecond, fn); err != nil {
			t.Fatal(err)
		}
		if s.Pending() > 8 {
			if !s.Step() {
				t.Fatal("Step with pending events")
			}
		}
	}
	s.Run()
	if got := len(s.free); got > 16 {
		t.Fatalf("free list grew to %d structs; churn is not recycling", got)
	}
	if s.Fired() != 1000 {
		t.Fatalf("Fired = %d, want 1000", s.Fired())
	}
}

// TestSchedulerChurnAllocFree is the pooled-event allocation guard: a
// steady-state schedule/cancel/fire mix must allocate nothing once the pool
// and heap have warmed up.
func TestSchedulerChurnAllocFree(t *testing.T) {
	var s Scheduler
	fn := func() {}
	// Warm the pool and the heap slice.
	for i := 0; i < 256; i++ {
		if _, err := s.After(time.Duration(i)*time.Microsecond, fn); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		keep, err := s.After(time.Duration(i%7)*time.Microsecond, fn)
		if err != nil {
			t.Fatal(err)
		}
		drop, err := s.After(time.Duration(i%13)*time.Microsecond, fn)
		if err != nil {
			t.Fatal(err)
		}
		drop.Cancel()
		_ = keep
		s.Step()
		i++
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("schedule/cancel/fire churn allocates %.1f objects per op, want 0", allocs)
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

// FuzzDESOrdering pins the heap's pop order against a reference sort: for
// any fuzzed schedule, events pop in strictly ascending (timestamp,
// sequence) order and same-timestamp events preserve insertion order.
func FuzzDESOrdering(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(3))
	f.Add([]byte{255, 1, 255, 1, 128, 7, 9}, uint8(5))
	f.Fuzz(func(t *testing.T, ats []byte, cancelMask uint8) {
		if len(ats) > 256 {
			ats = ats[:256]
		}
		var s Scheduler
		type rec struct {
			at  time.Duration
			seq int
		}
		var want []rec
		var got []rec
		var handles []Handle
		for i, b := range ats {
			i, at := i, time.Duration(b)*time.Millisecond
			h, err := s.At(at, func() { got = append(got, rec{at: at, seq: i}) })
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
			want = append(want, rec{at: at, seq: i})
		}
		// Cancel a mask-selected subset to fuzz heap removals too.
		cancelled := make(map[int]bool)
		for i := range handles {
			if cancelMask&(1<<(i%8)) != 0 && i%3 == 0 {
				cancelled[i] = true
				handles[i].Cancel()
			}
		}
		// Reference: stable sort by timestamp keeps insertion (seq) order
		// within ties.
		kept := want[:0]
		for _, r := range want {
			if !cancelled[r.seq] {
				kept = append(kept, r)
			}
		}
		for i := 1; i < len(kept); i++ {
			for j := i; j > 0 && kept[j].at < kept[j-1].at; j-- {
				kept[j], kept[j-1] = kept[j-1], kept[j]
			}
		}
		s.Run()
		if len(got) != len(kept) {
			t.Fatalf("popped %d events, want %d", len(got), len(kept))
		}
		for i := range kept {
			if got[i] != kept[i] {
				t.Fatalf("pop[%d] = %+v, want %+v (heap order must match the reference sort)", i, got[i], kept[i])
			}
		}
	})
}
