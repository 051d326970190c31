package memsim

import (
	"math/rand"
	"testing"

	"pageseer/internal/check"
	"pageseer/internal/ckpt"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

func TestPromoteRaisesSwapRequest(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	cfg.SwapAgeLimit = 0 // no aging: promotion is the only escape
	cfg.ClasslessEvery = 0
	d := New(sim, cfg, 0, 256<<20)

	// Keep the channel busy with demand, then enqueue a swap read and
	// promote it: it must complete before the later demand tail.
	var order []string
	for i := 0; i < 6; i++ {
		d.Access(mem.Addr(i*64), false, PrioDemand, nil)
	}
	swapAddr := mem.Addr(0x100000)
	d.Access(swapAddr, false, PrioSwap, func() { order = append(order, "swap") })
	for i := 6; i < 12; i++ {
		d.Access(mem.Addr(i*64), false, PrioDemand, func() { order = append(order, "demand-tail") })
	}
	d.Promote(swapAddr)
	sim.Drain(0)
	if len(order) == 0 || order[len(order)-1] == "swap" {
		t.Fatalf("promoted swap completed last: %v", order)
	}
}

func TestClasslessSlotGuaranteesBackgroundShare(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	cfg.SwapAgeLimit = 0
	cfg.ClasslessEvery = 4
	d := New(sim, cfg, 0, 256<<20)

	// Saturating demand: a new demand request arrives forever (bounded),
	// plus a batch of swap reads. Without the reserved slot the swaps
	// would wait for the entire demand stream.
	swapsDone := 0
	for i := 0; i < 16; i++ {
		d.Access(mem.Addr(0x200000+i*64), false, PrioSwap, func() { swapsDone++ })
	}
	demandLeft := 200
	var feed func()
	feed = func() {
		if demandLeft == 0 {
			return
		}
		demandLeft--
		d.Access(mem.Addr(demandLeft*64), false, PrioDemand, func() { feed() })
	}
	// Prime several in flight so the queue never empties until the end.
	for i := 0; i < 8; i++ {
		feed()
	}
	sim.RunUntil(16 * 200) // enough slots for ~1/4 background share
	if swapsDone == 0 {
		t.Fatal("background requests starved despite reserved slots")
	}
	sim.Drain(0)
	if swapsDone != 16 {
		t.Fatalf("swapsDone = %d, want 16", swapsDone)
	}
}

func TestAgingPromotesToMiddleClass(t *testing.T) {
	sim := engine.New()
	cfg := DRAMConfig()
	cfg.Channels = 1
	cfg.SwapAgeLimit = 100
	cfg.ClasslessEvery = 0
	d := New(sim, cfg, 0, 256<<20)

	done := false
	d.Access(0x300000, false, PrioSwap, func() { done = true })
	// Continuous fresh demand for a while; after the age limit the swap
	// should still get through within a bounded horizon.
	for i := 0; i < 50; i++ {
		d.Access(mem.Addr(i*64), false, PrioDemand, nil)
	}
	sim.RunUntil(5000)
	sim.Drain(0)
	if !done {
		t.Fatal("aged swap request never completed")
	}
}

// refPick is the linear reference scheduler: the original two-pass scan of
// the whole channel queue, re-decoding every request's address with the
// division path. It mutates nothing (the caller charges the bypass).
func refPick(m *Module, c *channel, now uint64) (*request, uint64) {
	classless := m.cfg.ClasslessEvery != 0 && c.commits%m.cfg.ClasslessEvery == m.cfg.ClasslessEvery-1
	var oldest *request
	for r := c.head; r != nil; r = r.next {
		if oldest == nil || r.arrival < oldest.arrival {
			oldest = r
		}
	}
	if oldest.bypass >= m.cfg.MaxBypass {
		bound := now + m.tRP + m.tRCD + m.tCAS + 2*m.burst
		if c.busFree > now {
			bound += c.busFree - now
		}
		if s := refFeasible(m, c, oldest, now); s <= bound {
			return oldest, s
		}
	}
	var best *request
	var bestStart uint64
	var bestPrio int
	for r := c.head; r != nil; r = r.next {
		s := refFeasible(m, c, r, now)
		prio := 0
		if r.prio == PrioSwap {
			prio = 2
			if m.cfg.SwapAgeLimit != 0 && now-r.arrival > m.cfg.SwapAgeLimit {
				prio = 1
			}
		}
		if classless {
			prio = -prio
		}
		if best == nil || prio < bestPrio ||
			(prio == bestPrio && (s < bestStart ||
				(s == bestStart && r.arrival < best.arrival))) {
			best, bestStart, bestPrio = r, s, prio
		}
	}
	return best, bestStart
}

// refFeasible is the reference per-request start: the earliest cycle the
// request's data burst could begin given its bank and the data bus.
func refFeasible(m *Module, c *channel, r *request, now uint64) uint64 {
	_, bkIdx, row := m.locateDiv(uint64(r.addr-m.base) >> mem.LineShift)
	bk := &c.banks[bkIdx]
	var path uint64
	switch {
	case bk.openRow == row:
		path = now + m.tCAS
	case bk.openRow == -1:
		path = now + m.tRCD + m.tCAS
	default:
		pre := now
		if bk.earliestPre > pre {
			pre = bk.earliestPre
		}
		path = pre + m.tRP + m.tRCD + m.tCAS
	}
	if bk.nextReady > path {
		path = bk.nextReady
	}
	if c.busFree > path {
		path = c.busFree
	}
	return path
}

// checkQueues verifies the scheduler's bookkeeping: every queued request is
// on the channel queue and on exactly its decoded bank's list for its
// class, every list is in arrival order with consistent back links, the
// counts match, aged requests really are aged and precede the bank's fresh
// ones, every set row-hit cache names the oldest matching request, and
// each class's bank mask marks exactly the banks whose list is non-empty.
func checkQueues(tb testing.TB, m *Module) {
	tb.Helper()
	now := m.sim.Now()
	for ci := range m.chans {
		c := &m.chans[ci]
		queued := map[*request]bool{}
		var prev *request
		for r := c.head; r != nil; r = r.next {
			if r.prev != prev {
				tb.Fatalf("ch%d: broken back link at seq %d", ci, r.seq)
			}
			if prev != nil && !prev.older(r) {
				tb.Fatalf("ch%d: queue out of arrival order at seq %d", ci, r.seq)
			}
			ch, bk, row := m.locateDiv(uint64(r.addr-m.base) >> mem.LineShift)
			if ch != ci || bk != int(r.bank) || row != r.row {
				tb.Fatalf("ch%d: request %#x decoded (%d,%d,%d), stored (%d,%d,%d)",
					ci, uint64(r.addr), ch, bk, row, ci, r.bank, r.row)
			}
			queued[r] = true
			prev = r
		}
		if c.tail != prev || len(queued) != c.queued {
			tb.Fatalf("ch%d: queue holds %d, count %d (tail ok: %v)", ci, len(queued), c.queued, c.tail == prev)
		}
		var counts [numCls]int
		onList := map[*request]bool{}
		for b := range c.banks {
			bk := &c.banks[b]
			for k := range bk.lists {
				l := &bk.lists[k]
				var prev, firstHitReq *request
				for r := l.head; r != nil; r = r.bnext {
					switch {
					case r.bprev != prev:
						tb.Fatalf("ch%d bank%d class%d: broken back link", ci, b, k)
					case prev != nil && !prev.older(r):
						tb.Fatalf("ch%d bank%d class%d: list out of arrival order", ci, b, k)
					case !queued[r] || onList[r]:
						tb.Fatalf("ch%d bank%d class%d: request %#x not queued or on two lists", ci, b, k, uint64(r.addr))
					case int(r.bank) != b || int(r.cls) != k:
						tb.Fatalf("ch%d bank%d class%d: request of bank %d class %d", ci, b, k, r.bank, r.cls)
					case (k == clsDemand) != (r.prio != PrioSwap):
						tb.Fatalf("ch%d bank%d class%d: priority %d on the wrong list", ci, b, k, r.prio)
					case k == clsAged && now-r.arrival <= m.cfg.SwapAgeLimit:
						tb.Fatalf("ch%d bank%d: request aged early (waited %d)", ci, b, now-r.arrival)
					}
					if firstHitReq == nil && r.row == l.hitRow {
						firstHitReq = r
					}
					onList[r] = true
					counts[k]++
					prev = r
				}
				if l.tail != prev {
					tb.Fatalf("ch%d bank%d class%d: stale tail", ci, b, k)
				}
				if l.hitRow != staleRow && l.hit != firstHitReq {
					tb.Fatalf("ch%d bank%d class%d: row-hit cache for row %d is stale", ci, b, k, l.hitRow)
				}
				if occupied := c.occ[k][b/64]&(1<<(b%64)) != 0; occupied != (l.head != nil) {
					tb.Fatalf("ch%d bank%d class%d: occupancy bit %v, list empty %v", ci, b, k, occupied, l.head == nil)
				}
			}
			if a, f := bk.lists[clsAged].tail, bk.lists[clsFresh].head; a != nil && f != nil && !a.older(f) {
				tb.Fatalf("ch%d bank%d: aged request younger than a fresh one", ci, b)
			}
		}
		if len(onList) != len(queued) || counts != c.count {
			tb.Fatalf("ch%d: lists hold %d (%v), queue %d (%v)", ci, len(onList), counts, len(queued), c.count)
		}
	}
}

// schedCoverage counts the scheduler paths a stream exercised.
type schedCoverage struct {
	commits, forced, classless, aged, promoted int
}

// schedModule builds the module for stream selector sel: the paper's DRAM
// (4 channels x 8 banks), its NVM (2 x 16), a one-channel DRAM whose
// single queue gets deep, or a one-channel part with 2 ranks of 40 banks,
// whose bank masks span two words.
func schedModule(sim *engine.Sim, sel uint8) *Module {
	switch sel % 4 {
	case 0:
		return New(sim, DRAMConfig(), 0, 512<<20)
	case 1:
		return New(sim, NVMConfig(), 512<<20, 4<<30)
	case 2:
		cfg := DRAMConfig()
		cfg.Channels = 1
		return New(sim, cfg, 0, 256<<20)
	default:
		cfg := DRAMConfig()
		cfg.Channels, cfg.RanksPerChannel, cfg.BanksPerRank = 1, 2, 40
		return New(sim, cfg, 0, 256<<20)
	}
}

// runSchedStream drives a randomized request stream through the module
// selected by sel with pick checked against refPick before every commit and
// the bookkeeping checked after every enqueue, commit and Promote. The
// stream arrives in bursts over a few rows per bank (row hits, closed
// banks and conflicts), mixes reads and writes, demand and swap, promotes
// queued swap lines, and draws the aging limit, classless period and
// bypass bound from the seed.
func runSchedStream(tb testing.TB, seed int64, sel uint8) schedCoverage {
	rng := rand.New(rand.NewSource(seed))
	sim := engine.New()
	m := schedModule(sim, sel)
	m.cfg.SwapAgeLimit = []uint64{0, 40, 150, 400}[rng.Intn(4)]
	m.cfg.ClasslessEvery = []uint64{0, 2, 3, 6}[rng.Intn(4)]
	m.cfg.MaxBypass = []int{0, 1, 3, 8}[rng.Intn(4)]

	var cov schedCoverage
	m.pickFn = func(c *channel, now uint64) (*request, uint64) {
		checkQueues(tb, m)
		want, wantStart := refPick(m, c, now)
		got, gotStart := m.pick(c, now)
		if got != want || gotStart != wantStart {
			tb.Fatalf("seed %d sel %d commit %d at %d: pick chose %#x@%d, reference %#x@%d",
				seed, sel, cov.commits, now, uint64(got.addr), gotStart, uint64(want.addr), wantStart)
		}
		cov.commits++
		if got == c.head && c.head.bypass >= m.cfg.MaxBypass {
			cov.forced++
		}
		if m.cfg.ClasslessEvery != 0 && c.commits%m.cfg.ClasslessEvery == m.cfg.ClasslessEvery-1 {
			cov.classless++
		}
		if c.count[clsAged] > 0 {
			cov.aged++
		}
		return got, gotStart
	}

	channels := uint64(m.cfg.Channels)
	banks := uint64(m.banksPerChannel)
	hotBanks := 1 + rng.Intn(int(banks))
	lineAddr := func() mem.Addr {
		ch := uint64(rng.Intn(int(channels)))
		bk := uint64(rng.Intn(hotBanks))
		row := uint64(rng.Intn(4))
		col := uint64(rng.Intn(8))
		line := ((row*banks+bk)*m.linesPerRow+col)*channels + ch
		return m.base + mem.Addr(line<<mem.LineShift)
	}

	n := 300 + rng.Intn(500)
	var swaps []mem.Addr
	completed := 0
	var at uint64
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			at += uint64(rng.Intn(400)) // a gap lets queues drain and ages grow
		} else {
			at += uint64(rng.Intn(3))
		}
		addr, write := lineAddr(), rng.Intn(2) == 0
		prio := PrioDemand
		if rng.Intn(2) == 0 {
			prio = PrioSwap
		}
		sim.At(at, func() {
			m.Access(addr, write, prio, func() { completed++ })
			checkQueues(tb, m)
			if prio == PrioSwap {
				swaps = append(swaps, addr)
			}
		})
		if rng.Intn(10) == 0 {
			sim.At(at+uint64(rng.Intn(200)), func() {
				if len(swaps) == 0 {
					return
				}
				line := mem.LineOf(swaps[rng.Intn(len(swaps))])
				ch, _, _ := m.locate(line)
				before := m.chans[ch].count[clsDemand]
				m.Promote(line)
				cov.promoted += m.chans[ch].count[clsDemand] - before
				checkQueues(tb, m)
			})
		}
	}
	sim.Drain(0)
	checkQueues(tb, m)
	if completed != n {
		tb.Fatalf("seed %d sel %d: %d of %d requests completed", seed, sel, completed, n)
	}
	var a check.Audit
	m.Audit(&a)
	if err := a.Err(); err != nil {
		tb.Fatal(err)
	}
	return cov
}

// TestPickMatchesLinearReference checks, before every commit of many
// randomized streams on the DRAM, the NVM and two one-channel parts, that the
// bank-head scheduler chooses the same request and start cycle as the
// linear reference scan, and that every scheduler path was exercised.
func TestPickMatchesLinearReference(t *testing.T) {
	var total schedCoverage
	for seed := int64(1); seed <= 30; seed++ {
		for sel := uint8(0); sel < 4; sel++ {
			cov := runSchedStream(t, seed, sel)
			total.commits += cov.commits
			total.forced += cov.forced
			total.classless += cov.classless
			total.aged += cov.aged
			total.promoted += cov.promoted
		}
	}
	if total.forced == 0 || total.classless == 0 || total.aged == 0 || total.promoted == 0 {
		t.Fatalf("streams missed a scheduler path: %+v", total)
	}
	t.Logf("checked %+v", total)
}

// FuzzScheduler searches for a stream on which pick and the linear
// reference disagree (make fuzz-scheduler).
func FuzzScheduler(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		for sel := uint8(0); sel < 4; sel++ {
			f.Add(seed, sel)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, sel uint8) {
		runSchedStream(t, seed, sel)
	})
}

// TestLocateShiftMatchesDivision: on the paper's power-of-two parts the
// shift/mask decode must agree with the division decode everywhere.
func TestLocateShiftMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		cfg  Config
		base mem.Addr
		size uint64
	}{{DRAMConfig(), 0, 512 << 20}, {NVMConfig(), 512 << 20, 4 << 30}} {
		m := New(engine.New(), tc.cfg, tc.base, tc.size)
		if !m.pow2 {
			t.Fatalf("%s: power-of-two geometry not detected", tc.cfg.Name)
		}
		for i := 0; i < 100_000; i++ {
			off := uint64(rng.Int63n(int64(tc.size)))
			if i < 2 {
				off = []uint64{0, tc.size - 1}[i]
			}
			addr := tc.base + mem.Addr(off)
			ch, bk, row := m.locate(addr)
			wch, wbk, wrow := m.locateDiv(off >> mem.LineShift)
			if ch != wch || bk != wbk || row != wrow {
				t.Fatalf("%s %#x: shift decode (%d,%d,%d), division (%d,%d,%d)",
					tc.cfg.Name, uint64(addr), ch, bk, row, wch, wbk, wrow)
			}
		}
	}
}

// TestLocateNonPow2Geometry: a 3-channel, 6-bank part falls back to
// division and still decodes lines channel-first, then columns, then banks.
func TestLocateNonPow2Geometry(t *testing.T) {
	cfg := DRAMConfig()
	cfg.Channels, cfg.RanksPerChannel, cfg.BanksPerRank = 3, 2, 3
	m := New(engine.New(), cfg, 0, 96<<20)
	if m.pow2 {
		t.Fatal("non-power-of-two geometry took the shift path")
	}
	rng := rand.New(rand.NewSource(11))
	const linesPerRow = 8192 / 64
	seen := map[[2]int]bool{}
	for i := 0; i < 50_000; i++ {
		line := uint64(rng.Int63n(96 << 20 >> mem.LineShift))
		ch, bk, row := m.locate(mem.Addr(line << mem.LineShift))
		rowLocal := line / 3 / linesPerRow
		if ch != int(line%3) || bk != int(rowLocal%6) || row != int64(rowLocal/6) {
			t.Fatalf("line %d decoded (%d,%d,%d)", line, ch, bk, row)
		}
		seen[[2]int{ch, bk}] = true
	}
	if len(seen) != 18 {
		t.Fatalf("decode reached %d of 18 (channel, bank) pairs", len(seen))
	}
}

// BenchmarkSchedulerDeepQueue keeps about 200 NVM requests queued (scattered
// rows, half writes, half swap traffic) and reports the cost per commit:
// "pick" is the bank-head scheduler, "linear" the reference scan it
// replaced.
func BenchmarkSchedulerDeepQueue(b *testing.B) {
	b.Run("pick", func(b *testing.B) { benchDeepQueue(b, false) })
	b.Run("linear", func(b *testing.B) { benchDeepQueue(b, true) })
}

func benchDeepQueue(b *testing.B, linear bool) {
	const depth = 200
	const size = 1 << 30
	sim := engine.New()
	m := New(sim, NVMConfig(), 0, size)
	if linear {
		m.pickFn = func(c *channel, now uint64) (*request, uint64) { return refPick(m, c, now) }
	}
	rng := rand.New(rand.NewSource(1))
	type access struct {
		addr  mem.Addr
		write bool
		prio  Priority
	}
	stream := make([]access, 1<<12)
	for i := range stream {
		stream[i] = access{mem.Addr(rng.Int63n(size/mem.LineSize) * mem.LineSize), rng.Intn(2) == 0, Priority(rng.Intn(2))}
	}
	next, left := 0, b.N
	var done func()
	issue := func() {
		a := stream[next%len(stream)]
		next++
		m.Access(a.addr, a.write, a.prio, done)
	}
	done = func() {
		if left > 0 {
			left--
			issue()
		}
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	b.ResetTimer()
	sim.Drain(0)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(next), "ns/commit")
}

// TestSnapshotQuiesceAndResume: the scheduler's lists are derived state.
// Snapshot still refuses a module with queued requests, and a module
// restored from a quiesced snapshot (lists rebuilt empty) schedules a
// follow-on stream exactly as the original module does.
func TestSnapshotQuiesceAndResume(t *testing.T) {
	stream := func(sim *engine.Sim, m *Module, seed int64, done func(int, uint64)) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			i := i
			addr := m.base + mem.Addr(rng.Int63n(1<<24))&^63
			m.Access(addr, rng.Intn(2) == 0, Priority(rng.Intn(2)), func() { done(i, sim.Now()) })
		}
	}
	sim := engine.New()
	m := New(sim, NVMConfig(), 0, 1<<30)
	stream(sim, m, 1, func(int, uint64) {})
	if err := m.Snapshot(ckpt.NewWriter()); err == nil {
		t.Fatal("snapshot of a module with queued requests succeeded")
	}
	sim.Drain(0)
	w := ckpt.NewWriter()
	if err := m.Snapshot(w); err != nil {
		t.Fatal(err)
	}
	r, err := ckpt.Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	sim2 := engine.New()
	sim2.RestoreClock(sim.ClockState())
	m2 := New(sim2, NVMConfig(), 0, 1<<30)
	m2.Restore(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	m2.pickFn = func(c *channel, now uint64) (*request, uint64) {
		checkQueues(t, m2)
		want, ws := refPick(m2, c, now)
		got, gs := m2.pick(c, now)
		if got != want || gs != ws {
			t.Fatalf("restored module: pick %#x@%d, reference %#x@%d", uint64(got.addr), gs, uint64(want.addr), ws)
		}
		return got, gs
	}
	orig, restored := make([]uint64, 200), make([]uint64, 200)
	stream(sim, m, 2, func(i int, at uint64) { orig[i] = at })
	stream(sim2, m2, 2, func(i int, at uint64) { restored[i] = at })
	sim.Drain(0)
	sim2.Drain(0)
	for i := range orig {
		if orig[i] != restored[i] {
			t.Fatalf("request %d completed at %d after restore, %d without", i, restored[i], orig[i])
		}
	}
	if m.Stats() != m2.Stats() {
		t.Fatalf("stats diverge after restore:\n%+v\n%+v", m.Stats(), m2.Stats())
	}
}
