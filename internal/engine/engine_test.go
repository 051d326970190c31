package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySim(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("new sim clock = %d, want 0", s.Now())
	}
	if s.Step() {
		t.Fatal("Step on empty sim returned true")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(10, func() { got = append(got, 1) })
	s.At(5, func() { got = append(got, 0) })
	s.At(10, func() { got = append(got, 2) }) // same cycle: insertion order
	s.At(20, func() { got = append(got, 3) })
	s.Drain(0)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 20 {
		t.Fatalf("final clock %d, want 20", s.Now())
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var fired uint64
	s.At(100, func() {
		s.After(7, func() { fired = s.Now() })
	})
	s.Drain(0)
	if fired != 107 {
		t.Fatalf("After fired at %d, want 107", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(10, func() {})
	})
	s.Drain(0)
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New()
	var fired []uint64
	for _, c := range []uint64{5, 10, 15, 20} {
		c := c
		s.At(c, func() { fired = append(fired, c) })
	}
	s.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired %v, want [5 10]", fired)
	}
	if s.Now() != 12 {
		t.Fatalf("clock %d, want 12", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4", fired)
	}
}

func TestRunUntilAdvancesClockWhenEmpty(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock %d, want 42", s.Now())
	}
}

func TestDrainPanicsOnRunaway(t *testing.T) {
	s := New()
	var loop func()
	loop = func() { s.After(1, loop) }
	s.At(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("Drain did not panic on runaway loop")
		}
	}()
	s.Drain(1000)
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 17; i++ {
		s.At(uint64(i), func() {})
	}
	s.Drain(0)
	if s.Fired() != 17 {
		t.Fatalf("Fired = %d, want 17", s.Fired())
	}
}

// Property: regardless of the insertion order of events, they execute in
// non-decreasing cycle order, and events with equal cycles execute in
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%100) + 1
		cycles := make([]uint64, n)
		for i := range cycles {
			cycles[i] = uint64(rng.Intn(50)) // dense range forces ties
		}
		s := New()
		type rec struct {
			cycle uint64
			idx   int
		}
		var got []rec
		for i, c := range cycles {
			i, c := i, c
			s.At(c, func() { got = append(got, rec{c, i}) })
		}
		s.Drain(0)
		if len(got) != n {
			return false
		}
		// Expected: stable sort of (cycle, insertion index).
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return cycles[idx[a]] < cycles[idx[b]] })
		for i, r := range got {
			if r.idx != idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling never observes a clock earlier than the
// scheduling event's cycle.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ok := true
		var last uint64
		var spawn func(depth int)
		spawn = func(depth int) {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if depth <= 0 {
				return
			}
			for i := 0; i < 2; i++ {
				d := uint64(rng.Intn(10))
				s.After(d, func() { spawn(depth - 1) })
			}
		}
		s.At(0, func() { spawn(6) })
		s.Drain(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPendingSpansWheelAndHeap pins the crashdump queue snapshot:
// events straddling the wheel horizon (some in wheel buckets, some in the
// overflow heap, with same-cycle ties split across the two) come back in
// (cycle, seq) fire order, truncated at max, with Seq the plain insertion
// counter ClockState reports.
func TestSnapshotPendingSpansWheelAndHeap(t *testing.T) {
	const H = WheelHorizon
	s := New()
	var fired []PendingEvent
	at := func(cycle uint64) {
		var seq uint64
		s.At(cycle, func() { fired = append(fired, PendingEvent{Cycle: cycle, Seq: seq}) })
		_, seq, _ = s.ClockState()
	}
	at(H + 10) // seq 1: heap (delay >= horizon from cycle 0)
	at(5)      // seq 2: wheel, fires before the snapshot
	at(2 * H)  // seq 3: heap
	s.At(20, func() {
		at(H + 10) // seq 5: wheel, ties seq 1 in the heap
		at(30)     // seq 6: wheel
		at(2 * H)  // seq 7: heap, ties seq 3
		at(H + 10) // seq 8: wheel
	}) // seq 4
	s.RunUntil(20)
	fired = nil

	if len(s.pq) != 3 || s.wheelLen != 3 {
		t.Fatalf("setup: %d heap / %d wheel events, want 3 / 3", len(s.pq), s.wheelLen)
	}
	want := []PendingEvent{{30, 6}, {H + 10, 1}, {H + 10, 5}, {H + 10, 8}, {2 * H, 3}, {2 * H, 7}}
	got := s.SnapshotPending(100)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SnapshotPending = %v, want %v", got, want)
	}
	if got := s.SnapshotPending(4); fmt.Sprint(got) != fmt.Sprint(want[:4]) {
		t.Fatalf("SnapshotPending(4) = %v, want %v", got, want[:4])
	}
	if got := s.SnapshotPending(0); got != nil {
		t.Fatalf("SnapshotPending(0) = %v, want nil", got)
	}
	if _, seq, _ := s.ClockState(); seq != 8 {
		t.Fatalf("ClockState seq = %d, want 8", seq)
	}
	// The snapshot must not disturb the queue: the drain fires exactly the
	// snapshotted events, in snapshot order, with the seqs At assigned.
	s.Drain(0)
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", fired, want)
	}

	// Randomised: interleave scheduling across the horizon with partial
	// runs, and check every snapshot against the fire order that follows.
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		s := New()
		var fired []PendingEvent
		var at func(cycle uint64)
		at = func(cycle uint64) {
			var seq uint64
			s.At(cycle, func() {
				fired = append(fired, PendingEvent{Cycle: cycle, Seq: seq})
				if rng.Intn(4) == 0 {
					at(s.Now() + uint64(rng.Intn(3*H)))
				}
			})
			_, seq, _ = s.ClockState()
		}
		for i := 0; i < 200; i++ {
			at(uint64(rng.Intn(3 * H)))
		}
		s.RunUntil(uint64(rng.Intn(2 * H)))
		fired = nil
		snap := s.SnapshotPending(s.Pending())
		if len(snap) != s.Pending() {
			t.Fatalf("round %d: snapshot has %d of %d events", round, len(snap), s.Pending())
		}
		// Events spawned after the snapshot carry later seqs; filter them.
		_, last, _ := s.ClockState()
		s.Drain(0)
		var old []PendingEvent
		for _, e := range fired {
			if e.Seq <= last {
				old = append(old, e)
			}
		}
		if fmt.Sprint(old) != fmt.Sprint(snap) {
			t.Fatalf("round %d: fire order diverges from snapshot", round)
		}
	}
}
