// Package memsim is a DRAMSim2-flavoured memory timing model: channels,
// ranks, banks, row buffers, and a FR-FCFS scheduler, parameterised with the
// DRAM and NVM timings from Table I of the PageSeer paper.
//
// All requests are cache-line (64B) granularity. Latency comes from three
// sources, exactly the ones the paper's evaluation depends on:
//
//   - row-buffer state: a row hit pays tCAS; a closed bank pays tRCD+tCAS;
//     a conflict pays tRP+tRCD+tCAS (NVM's tRCD=58 is where its high read
//     latency lives, and tWR=180 is where its write cost lives);
//   - bank-level parallelism: each bank tracks its own readiness, so
//     accesses to different banks overlap;
//   - channel bandwidth: one 64B burst occupies the channel data bus for
//     BurstCycles, so demand traffic and page-swap traffic contend.
//
// Timing parameters are given in memory-clock cycles (1GHz in the paper)
// and converted to CPU cycles (2GHz) with ClockRatio at construction.
package memsim

import (
	"fmt"
	"math/bits"

	"pageseer/internal/check"
	"pageseer/internal/engine"
	"pageseer/internal/mem"
	"pageseer/internal/obs/attrib"
)

// Timing holds per-command latencies in memory-clock cycles.
type Timing struct {
	TCAS uint64 // column access (read latency from open row)
	TRCD uint64 // row activate to column command
	TRAS uint64 // row activate to precharge
	TRP  uint64 // precharge
	TWR  uint64 // write recovery (data end to precharge)
}

// Config describes one memory module (a DRAM or NVM part).
type Config struct {
	Name            string
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowBytes        uint64 // row-buffer size per bank
	Timing          Timing
	ClockRatio      uint64 // CPU cycles per memory cycle (2 for 2GHz CPU / 1GHz bus)
	BurstMemCycles  uint64 // data-bus occupancy of one 64B line, in memory cycles
	// MaxBypass bounds FR-FCFS reordering: a request can be overtaken by
	// row hits at most this many times before it becomes highest priority.
	MaxBypass int
	// SwapAgeLimit promotes a background (swap-priority) request to the
	// middle scheduling class once it has waited this many CPU cycles,
	// bounding migration starvation under heavy demand traffic
	// (0 disables aging).
	SwapAgeLimit uint64
	// ClasslessEvery reserves every Nth commit slot for pure
	// first-ready-first-come scheduling regardless of class, guaranteeing
	// background traffic a bounded bandwidth share even under continuous
	// demand (0 disables the reservation).
	ClasslessEvery uint64
	// Blame is the cycle-accounting component this module's service time is
	// charged to (CompDRAM / CompNVM) when a request carries a blame vector.
	Blame attrib.Component
}

// DRAMConfig returns the paper's DRAM part (Table I): 4 channels, 1 rank,
// 8 banks, 11-11-28 with tRP=11, tWR=12.
func DRAMConfig() Config {
	return Config{
		Name:            "DRAM",
		Channels:        4,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowBytes:        8192,
		Timing:          Timing{TCAS: 11, TRCD: 11, TRAS: 28, TRP: 11, TWR: 12},
		ClockRatio:      2,
		BurstMemCycles:  4, // 64B over a 64-bit DDR bus at 1GHz
		MaxBypass:       3,
		SwapAgeLimit:    400,
		ClasslessEvery:  6,
		Blame:           attrib.CompDRAM,
	}
}

// NVMConfig returns the paper's NVM part (Table I): 2 channels, 2 ranks,
// 8 banks, 11-58-80 with tRP=11, tWR=180, refresh disabled.
func NVMConfig() Config {
	return Config{
		Name:            "NVM",
		Channels:        2,
		RanksPerChannel: 2,
		BanksPerRank:    8,
		RowBytes:        8192,
		Timing:          Timing{TCAS: 11, TRCD: 58, TRAS: 80, TRP: 11, TWR: 180},
		ClockRatio:      2,
		BurstMemCycles:  4,
		MaxBypass:       3,
		SwapAgeLimit:    400,
		ClasslessEvery:  6,
		Blame:           attrib.CompNVM,
	}
}

// Priority orders request classes at the scheduler. Demand misses always
// beat background swap traffic so page migration cannot starve the program.
type Priority int

const (
	// PrioDemand is for processor demand misses and page-walk reads.
	PrioDemand Priority = iota
	// PrioSwap is for page-swap and metadata background traffic.
	PrioSwap
)

// Request is one line-granularity access. Records are pooled per module
// with a pre-bound completion closure (fireFn), so the enqueue -> issue ->
// data-return lifecycle allocates nothing in steady state.
type request struct {
	addr    mem.Addr
	write   bool
	cls     uint8 // scheduling class list the request sits on (clsDemand...)
	bank    int32 // decoded once at enqueue, with row
	row     int64
	prio    Priority
	arrival uint64
	seq     uint64 // channel enqueue order, the tie-break after arrival
	bypass  int
	done    func()
	fireFn  func()

	// prev/next link the channel-wide arrival-order queue (next doubles as
	// the free-list link); bprev/bnext link the bank's class list.
	prev, next   *request
	bprev, bnext *request

	// Cycle accounting (nil/zero when the request carries no blame vector):
	// swapBusyAt snapshots the channel's cumulative swap-bus occupancy at
	// arrival; issue() turns it into queueWait/swapShare, and completeReq
	// stamps the split onto v.
	v          *attrib.Vector
	swapBusyAt uint64
	queueWait  uint64
	swapShare  uint64
}

// older reports whether r precedes o in arrival order.
func (r *request) older(o *request) bool {
	return r.arrival < o.arrival || (r.arrival == o.arrival && r.seq < o.seq)
}

// Effective scheduling classes, best first: demand beats aged background
// beats fresh background (the classless slot inverts the order). Each
// queued request sits on exactly one of its bank's class lists.
const (
	clsDemand = iota // PrioDemand, or a promoted swap request
	clsAged          // PrioSwap waiting longer than SwapAgeLimit
	clsFresh         // PrioSwap within SwapAgeLimit
	numCls
)

// staleRow marks a class list's row-hit cache as unset: it never equals an
// open row (-1 when closed, else >= 0).
const staleRow = -2

// rlist is an intrusive list of one bank's requests of one class, in
// arrival order, with a cached oldest row hit: when hitRow != staleRow, hit
// is the oldest request on the list whose row is hitRow (nil if none). The
// cache serves the scheduler while hitRow equals the bank's open row.
type rlist struct {
	head, tail *request
	hit        *request
	hitRow     int64
}

// firstHit returns the first request from r onward whose row is row.
func firstHit(r *request, row int64) *request {
	for ; r != nil && r.row != row; r = r.bnext {
	}
	return r
}

// pushBack appends r, which is no older than anything on the list.
func (l *rlist) pushBack(r *request) {
	r.bprev, r.bnext = l.tail, nil
	if l.tail != nil {
		l.tail.bnext = r
	} else {
		l.head = r
	}
	l.tail = r
	if l.hit == nil && r.row == l.hitRow {
		l.hit = r
	}
}

// insert links r at its arrival-order position.
func (l *rlist) insert(r *request) {
	at := l.tail
	for at != nil && r.older(at) {
		at = at.bprev
	}
	r.bprev = at
	if at != nil {
		r.bnext, at.bnext = at.bnext, r
	} else {
		r.bnext, l.head = l.head, r
	}
	if r.bnext != nil {
		r.bnext.bprev = r
	} else {
		l.tail = r
	}
	if r.row == l.hitRow && (l.hit == nil || r.older(l.hit)) {
		l.hit = r
	}
}

// unlink removes r. Everything before the cached hit is a non-hit, so a
// removed hit's successor is found by scanning on from r.
func (l *rlist) unlink(r *request) {
	if l.hit == r {
		l.hit = firstHit(r.bnext, r.row)
	}
	if r.bprev != nil {
		r.bprev.bnext = r.bnext
	} else {
		l.head = r.bnext
	}
	if r.bnext != nil {
		r.bnext.bprev = r.bprev
	} else {
		l.tail = r.bprev
	}
	r.bprev, r.bnext = nil, nil
}

// hitFor returns the oldest request on the list whose row is open.
func (l *rlist) hitFor(open int64) *request {
	if l.hitRow != open {
		l.hit, l.hitRow = firstHit(l.head, open), open
	}
	return l.hit
}

type bank struct {
	openRow      int64 // -1 when closed
	nextReady    uint64
	earliestPre  uint64 // tRAS / tWR constraint on the next precharge
	rowHits      uint64
	rowMisses    uint64
	rowConflicts uint64
	// lists holds the bank's queued requests by class (derived state:
	// empty at every quiesce point, never checkpointed).
	lists [numCls]rlist
}

type channel struct {
	banks   []bank
	busFree uint64
	// head/tail is the channel queue in arrival order; head is the oldest
	// request, the one MaxBypass protects.
	head, tail *request
	queued     int
	count      [numCls]int // queued requests per class
	// occ[k] has bit b set exactly when bank b's class-k list is non-empty
	// (64 banks per word), so the scheduler visits only banks with work.
	occ [numCls][]uint64
	seq uint64 // next enqueue sequence number
	// wakeAt is the cycle of the earliest pending scheduler wakeup
	// (0 = none).
	wakeAt uint64
	// commits counts issued requests, for the periodic classless slot.
	commits uint64
	// wakeFn is the scheduler-wakeup closure, bound once per channel so
	// arming a wakeup does not allocate.
	wakeFn func()
	// swapBusy is the cumulative data-bus occupancy of swap-priority
	// traffic on this channel, in CPU cycles. Monotone (never reset): the
	// cycle-accounting layer diffs it across a demand request's wait to
	// measure swap-transfer interference.
	swapBusy uint64
}

// Stats aggregates module-level counters.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	// TotalWait is the sum over requests of (completion - arrival), in CPU
	// cycles. TotalWait/ (Reads+Writes) is this module's average latency.
	TotalWait uint64
	// BusBusy is the total CPU cycles of data-bus occupancy, summed across
	// channels (for bandwidth-utilisation estimates).
	BusBusy uint64
}

// Add accumulates o into s. Keep it exhaustive: the reflection test in
// internal/sim pins that every numeric field survives aggregation.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.RowConflicts += o.RowConflicts
	s.TotalWait += o.TotalWait
	s.BusBusy += o.BusBusy
}

// Module simulates one memory part (the DRAM or the NVM of the hybrid pair).
type Module struct {
	sim  *engine.Sim
	cfg  Config
	base mem.Addr
	size uint64

	chans   []channel
	stats   Stats
	freeReq *request
	liveReq int // pooled request records checked out

	// derived, in CPU cycles
	tCAS, tRCD, tRAS, tRP, tWR, burst uint64
	linesPerRow                       uint64
	banksPerChannel                   int

	// Shift/mask address decode, used when channels, lines per row and
	// banks per channel are all powers of two (pow2).
	pow2                     bool
	chMask, bankMask         uint64
	rowLocalShift, bankShift uint

	// pickFn, when set (tests only), replaces pick: the oracle test checks
	// pick against a linear reference, and the deep-queue benchmark times
	// that reference.
	pickFn func(c *channel, now uint64) (*request, uint64)
}

func isPow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }

// New creates a module covering physical range [base, base+size).
func New(sim *engine.Sim, cfg Config, base mem.Addr, size uint64) *Module {
	if cfg.Channels <= 0 || cfg.BanksPerRank <= 0 || cfg.RanksPerChannel <= 0 {
		panic("memsim: invalid geometry")
	}
	if cfg.ClockRatio == 0 {
		cfg.ClockRatio = 1
	}
	m := &Module{
		sim:             sim,
		cfg:             cfg,
		base:            base,
		size:            size,
		tCAS:            cfg.Timing.TCAS * cfg.ClockRatio,
		tRCD:            cfg.Timing.TRCD * cfg.ClockRatio,
		tRAS:            cfg.Timing.TRAS * cfg.ClockRatio,
		tRP:             cfg.Timing.TRP * cfg.ClockRatio,
		tWR:             cfg.Timing.TWR * cfg.ClockRatio,
		burst:           cfg.BurstMemCycles * cfg.ClockRatio,
		linesPerRow:     cfg.RowBytes / mem.LineSize,
		banksPerChannel: cfg.BanksPerRank * cfg.RanksPerChannel,
	}
	if chans, banks := uint64(cfg.Channels), uint64(m.banksPerChannel); isPow2(chans) && isPow2(m.linesPerRow) && isPow2(banks) {
		m.pow2 = true
		m.chMask, m.bankMask = chans-1, banks-1
		m.rowLocalShift = uint(bits.TrailingZeros64(chans) + bits.TrailingZeros64(m.linesPerRow))
		m.bankShift = uint(bits.TrailingZeros64(banks))
	}
	m.chans = make([]channel, cfg.Channels)
	for i := range m.chans {
		ch := i
		m.chans[i].banks = make([]bank, m.banksPerChannel)
		for k := range m.chans[i].occ {
			m.chans[i].occ[k] = make([]uint64, (m.banksPerChannel+63)/64)
		}
		for b := range m.chans[i].banks {
			bk := &m.chans[i].banks[b]
			bk.openRow = -1
			for k := range bk.lists {
				bk.lists[k].hitRow = staleRow
			}
		}
		m.chans[i].wakeFn = func() {
			m.chans[ch].wakeAt = 0
			m.trySchedule(ch)
		}
	}
	return m
}

func (m *Module) getReq() *request {
	m.liveReq++
	r := m.freeReq
	if r == nil {
		r = &request{}
		r.fireFn = func() { m.completeReq(r) }
		return r
	}
	m.freeReq = r.next
	r.next = nil
	return r
}

func (m *Module) putReq(r *request) {
	m.liveReq--
	r.addr, r.write, r.prio, r.arrival, r.bypass, r.done = 0, false, 0, 0, 0, nil
	r.cls, r.bank, r.row, r.seq = 0, 0, 0, 0
	r.v, r.swapBusyAt, r.queueWait, r.swapShare = nil, 0, 0, 0
	r.next = m.freeReq
	m.freeReq = r
}

// completeReq fires at a request's data-return time: the record returns to
// the pool before the callback runs, so the callback may immediately
// enqueue a new access that reuses it. The blame stamps split the measured
// wait three ways — swap-transfer interference, generic queue/bank wait,
// and device service (command path + data burst) — so the telescoping sum
// covers arrival to data end exactly.
func (m *Module) completeReq(r *request) {
	done, v, queueWait, swapShare := r.done, r.v, r.queueWait, r.swapShare
	m.putReq(r)
	if v != nil {
		v.AddUpTo(attrib.CompSwapXfer, swapShare)
		v.AddUpTo(attrib.CompMemQ, queueWait-swapShare)
		v.Take(m.cfg.Blame, m.sim.Now())
	}
	if done != nil {
		done()
	}
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// Stats returns a snapshot of the module counters.
func (m *Module) Stats() Stats {
	s := m.stats
	for i := range m.chans {
		for b := range m.chans[i].banks {
			bk := &m.chans[i].banks[b]
			s.RowHits += bk.rowHits
			s.RowMisses += bk.rowMisses
			s.RowConflicts += bk.rowConflicts
		}
	}
	return s
}

// Contains reports whether addr belongs to this module.
func (m *Module) Contains(addr mem.Addr) bool {
	return addr >= m.base && uint64(addr-m.base) < m.size
}

// locate maps a line address to (channel, bank, row). Lines interleave
// across channels first (for bandwidth), then columns fill a row, then rows
// interleave across banks.
func (m *Module) locate(addr mem.Addr) (ch, bk int, row int64) {
	if !m.Contains(addr) {
		panic(fmt.Sprintf("memsim(%s): address %#x outside module", m.cfg.Name, uint64(addr)))
	}
	line := uint64(addr-m.base) >> mem.LineShift
	if !m.pow2 {
		return m.locateDiv(line)
	}
	rowLocal := line >> m.rowLocalShift
	return int(line & m.chMask), int(rowLocal & m.bankMask), int64(rowLocal >> m.bankShift)
}

// locateDiv is locate's decode of a module-relative line index for any
// geometry.
func (m *Module) locateDiv(line uint64) (ch, bk int, row int64) {
	ch = int(line % uint64(m.cfg.Channels))
	rest := line / uint64(m.cfg.Channels)
	rowLocal := rest / m.linesPerRow
	bk = int(rowLocal % uint64(m.banksPerChannel))
	row = int64(rowLocal / uint64(m.banksPerChannel))
	return ch, bk, row
}

// BusBusy returns cumulative data-bus occupancy in CPU cycles summed over
// channels; successive deltas divided by (elapsed x Channels) give the
// module's bandwidth utilization.
func (m *Module) BusBusy() uint64 { return m.stats.BusBusy }

// Channels returns the channel count.
func (m *Module) Channels() int { return m.cfg.Channels }

// QueueLen returns the number of requests waiting on channel ch.
func (m *Module) QueueLen(ch int) int { return m.chans[ch].queued }

// QueueOccupancy returns the total queued requests across channels — the
// timeline sampler's congestion probe (cheap, no allocation).
func (m *Module) QueueOccupancy() int {
	var n int
	for i := range m.chans {
		n += m.chans[i].queued
	}
	return n
}

// Backlog returns the total number of queued requests across channels plus
// how far ahead of now the busiest data bus is committed, a cheap proxy for
// bandwidth saturation used by the Swap Driver heuristic.
func (m *Module) Backlog() (queued int, busAhead uint64) {
	now := m.sim.Now()
	for i := range m.chans {
		queued += m.chans[i].queued
		if m.chans[i].busFree > now && m.chans[i].busFree-now > busAhead {
			busAhead = m.chans[i].busFree - now
		}
	}
	return queued, busAhead
}

// Audit reports end-of-run invariant violations: a quiesced module has empty
// channel queues and per-bank class lists, and every pooled request record
// back on its free list.
func (m *Module) Audit(a *check.Audit) {
	a.Checkf(m.QueueOccupancy() == 0,
		"memsim %s: %d request(s) still queued at quiescence", m.cfg.Name, m.QueueOccupancy())
	for i := range m.chans {
		c := &m.chans[i]
		a.Checkf(c.head == nil && c.tail == nil,
			"memsim %s: channel %d queue not empty at quiescence", m.cfg.Name, i)
		for b := range c.banks {
			for k := range c.banks[b].lists {
				l := &c.banks[b].lists[k]
				a.Checkf(l.head == nil && l.tail == nil,
					"memsim %s: channel %d bank %d class %d list not empty at quiescence", m.cfg.Name, i, b, k)
			}
		}
	}
	a.Checkf(m.liveReq == 0,
		"memsim %s: %d pooled request record(s) never completed", m.cfg.Name, m.liveReq)
}

// Access enqueues a line access. done runs at completion time (may be nil).
func (m *Module) Access(addr mem.Addr, write bool, prio Priority, done func()) {
	m.AccessV(addr, write, prio, nil, done)
}

// AccessV is Access with a blame vector riding the request: completion
// stamps the queue-wait / swap-interference / service split onto v. A nil
// v is exactly Access.
func (m *Module) AccessV(addr mem.Addr, write bool, prio Priority, v *attrib.Vector, done func()) {
	line := mem.LineOf(addr)
	ch, bk, row := m.locate(line)
	c := &m.chans[ch]
	r := m.getReq()
	r.addr = line
	r.write = write
	r.prio = prio
	r.bank, r.row = int32(bk), row
	r.arrival = m.sim.Now()
	r.done = done
	r.v = v
	r.swapBusyAt = c.swapBusy
	m.enqueue(c, r)
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	m.trySchedule(ch)
}

// enqueue appends a decoded request to the channel queue and to its bank's
// class list. A swap request starts fresh; pick ages it.
func (m *Module) enqueue(c *channel, r *request) {
	r.seq = c.seq
	c.seq++
	r.prev = c.tail
	if c.tail != nil {
		c.tail.next = r
	} else {
		c.head = r
	}
	c.tail = r
	c.queued++
	r.cls = clsDemand
	if r.prio == PrioSwap {
		r.cls = clsFresh
	}
	c.count[r.cls]++
	c.push(r)
}

// push appends r to its bank's class list and marks the list non-empty.
func (c *channel) push(r *request) {
	c.banks[r.bank].lists[r.cls].pushBack(r)
	c.occ[r.cls][r.bank>>6] |= 1 << (r.bank & 63)
}

// unlink removes r from its bank's class list, clearing the list's
// occupancy bit when it empties.
func (c *channel) unlink(r *request) {
	l := &c.banks[r.bank].lists[r.cls]
	l.unlink(r)
	if l.head == nil {
		c.occ[r.cls][r.bank>>6] &^= 1 << (r.bank & 63)
	}
}

// dequeue removes a committed request from the channel queue and its list.
func (m *Module) dequeue(c *channel, r *request) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		c.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		c.tail = r.prev
	}
	r.prev, r.next = nil, nil
	c.queued--
	c.count[r.cls]--
	c.unlink(r)
}

// starts returns the earliest cycle a data burst from bank bk could start,
// for a row hit and for any other request (a closed-bank activate or a
// row conflict), given the bank's state and the shared data bus, without
// mutating anything. Every queued request of the bank starts at one of the
// two, and miss >= hit. Command latencies overlap with bus occupancy
// (commands pipeline on the command bus), so back-to-back row hits stream
// at full bus rate: their tCAS only shows when the bus is otherwise idle.
func (m *Module) starts(c *channel, bk *bank, now uint64) (hit, miss uint64) {
	hit = now + m.tCAS
	if bk.openRow == -1 {
		miss = now + m.tRCD + m.tCAS
	} else {
		pre := now
		if bk.earliestPre > pre {
			pre = bk.earliestPre
		}
		miss = pre + m.tRP + m.tRCD + m.tCAS
	}
	floor := bk.nextReady
	if c.busFree > floor {
		floor = c.busFree
	}
	return max(hit, floor), max(miss, floor)
}

// age moves swap requests that have waited longer than SwapAgeLimit from
// their bank's fresh list to its aged list. Requests age in arrival order,
// so each bank's aged list stays a prefix of its swap traffic.
func (m *Module) age(c *channel, now uint64) {
	limit := m.cfg.SwapAgeLimit
	if limit == 0 || c.count[clsFresh] == 0 {
		return
	}
	for wi, w := range c.occ[clsFresh] {
		for ; w != 0; w &= w - 1 {
			fresh := &c.banks[wi<<6+bits.TrailingZeros64(w)].lists[clsFresh]
			for r := fresh.head; r != nil && now-r.arrival > limit; r = fresh.head {
				c.unlink(r)
				r.cls = clsAged
				c.push(r)
				c.count[clsFresh]--
				c.count[clsAged]++
			}
		}
	}
}

// pick chooses the next request: best priority class first; within a class,
// the earliest feasible data-bus slot (which favours ready banks and row
// hits, the essence of FR-FCFS without head-of-line blocking); ties go to
// the oldest. A starving oldest request (bypassed more than MaxBypass
// times) becomes mandatory. pick mutates no scheduling state; trySchedule
// charges the bypass.
//
// Only per-bank candidates are evaluated: within one bank and class, every
// row hit starts at one cycle and every other request at a later-or-equal
// one, so the winner is the class list's head or its oldest row hit. The
// cost is O(banks) — only the banks the class's occupancy mask marks —
// not O(queue).
func (m *Module) pick(c *channel, now uint64) (*request, uint64) {
	oldest := c.head
	if oldest.bypass >= m.cfg.MaxBypass {
		// Force the starving oldest request — unless its bank is genuinely
		// unready (write recovery / precharge constraints push its start
		// beyond even a worst-case row conflict on an idle bank); idling
		// the bus behind such a bank would reintroduce head-of-line
		// blocking through the fairness path.
		bound := now + m.tRP + m.tRCD + m.tCAS + 2*m.burst
		if c.busFree > now {
			bound += c.busFree - now
		}
		bk := &c.banks[oldest.bank]
		hit, miss := m.starts(c, bk, now)
		s := miss
		if oldest.row == bk.openRow {
			s = hit
		}
		if s <= bound {
			return oldest, s
		}
	}
	m.age(c, now)
	// Three effective classes: demand beats aged background beats fresh
	// background. Aging bounds a migration line's wait without letting
	// stale swap bursts block fresh demand outright, and the periodic
	// classless slot (which inverts the class order) guarantees queued
	// background traffic a bounded share of the bus even under continuous
	// row-hitting demand.
	cls := clsDemand
	if m.cfg.ClasslessEvery != 0 && c.commits%m.cfg.ClasslessEvery == m.cfg.ClasslessEvery-1 {
		cls = clsFresh
		for c.count[cls] == 0 {
			cls--
		}
	} else {
		for c.count[cls] == 0 {
			cls++
		}
	}
	var best *request
	var bestStart uint64
	for wi, w := range c.occ[cls] {
		for ; w != 0; w &= w - 1 {
			bk := &c.banks[wi<<6+bits.TrailingZeros64(w)]
			l := &bk.lists[cls]
			h := l.head
			hit, miss := m.starts(c, bk, now)
			s := miss
			if h.row == bk.openRow {
				s = hit
			}
			if best == nil || s < bestStart || (s == bestStart && h.older(best)) {
				best, bestStart = h, s
			}
			if hr := l.hitFor(bk.openRow); hr != nil && hr != h &&
				(hit < bestStart || (hit == bestStart && hr.older(best))) {
				best, bestStart = hr, hit
			}
		}
	}
	return best, bestStart
}

// trySchedule commits the best queued request once the data bus has caught
// up with the previous commitment, then arms a wakeup at the new busFree.
// Committing only the minimum-dataStart request keeps the bus from being
// reserved behind a slow bank (no head-of-line blocking), while the
// one-commitment-ahead rule keeps the scheduler adaptive to new arrivals.
func (m *Module) trySchedule(ch int) {
	c := &m.chans[ch]
	if c.queued == 0 {
		return
	}
	now := m.sim.Now()
	// Commit the next request tCAS before the bus frees so a row hit's
	// data burst packs immediately behind the previous one.
	if c.busFree > now+m.tCAS {
		m.armWake(c, ch, c.busFree-m.tCAS)
		return
	}
	var r *request
	var start uint64
	if m.pickFn != nil {
		r, start = m.pickFn(c, now)
	} else {
		r, start = m.pick(c, now)
	}
	if r != c.head {
		c.head.bypass++
	}
	m.dequeue(c, r)
	c.commits++
	m.issue(ch, r, start)
	if c.queued > 0 {
		m.armWake(c, ch, c.busFree)
	}
}

func (m *Module) armWake(c *channel, ch int, at uint64) {
	if c.wakeAt != 0 && at >= c.wakeAt {
		return
	}
	c.wakeAt = at
	m.sim.At(at, c.wakeFn)
}

// issue commits one request at its data-burst start time.
func (m *Module) issue(ch int, r *request, dataStart uint64) {
	c := &m.chans[ch]
	bk := &c.banks[r.bank]
	row := r.row

	var cmdLat uint64
	switch {
	case bk.openRow == row:
		bk.rowHits++
		cmdLat = m.tCAS
	case bk.openRow == -1:
		bk.rowMisses++
		bk.earliestPre = dataStart - m.tCAS + m.tRAS
		cmdLat = m.tRCD + m.tCAS
	default:
		bk.rowConflicts++
		bk.earliestPre = dataStart - m.tCAS + m.tRAS
		cmdLat = m.tRP + m.tRCD + m.tCAS
	}

	dataEnd := dataStart + m.burst
	c.busFree = dataEnd
	m.stats.BusBusy += m.burst

	if r.v != nil {
		// Blame split: the command path (row state at issue) plus the data
		// burst is device service; everything else the request waited is
		// queueing, of which up to the concurrent growth in swap-bus
		// occupancy is swap-transfer interference. starts() works from the
		// same bank state, so service never exceeds the measured wait.
		r.queueWait = (dataEnd - r.arrival) - (cmdLat + m.burst)
		if r.swapShare = c.swapBusy - r.swapBusyAt; r.swapShare > r.queueWait {
			r.swapShare = r.queueWait
		}
	}
	if r.prio == PrioSwap {
		c.swapBusy += m.burst
	}

	bk.openRow = row
	// The next column command to this bank can pipeline behind this one.
	bk.nextReady = dataStart
	if r.write {
		// Write recovery: the row cannot be closed until tWR after the
		// data, so a row conflict after writes pays the full tWR (NVM's
		// 180-cycle tWR is where its write cost bites). Same-row writes
		// keep streaming at bus rate.
		if end := dataEnd + m.tWR; end > bk.earliestPre {
			bk.earliestPre = end
		}
	}

	m.stats.TotalWait += dataEnd - r.arrival
	m.sim.At(dataEnd, r.fireFn)
}

// Promote raises a queued request for the given line to demand priority —
// the controller calls this when a processor request is waiting on a swap
// read (requested-line-first, Section III-D1). The request keeps its
// arrival-order place among the bank's demand requests.
func (m *Module) Promote(addr mem.Addr) {
	line := mem.LineOf(addr)
	ch, b, _ := m.locate(line)
	c := &m.chans[ch]
	bk := &c.banks[b]
	for _, k := range [...]int{clsAged, clsFresh} {
		l := &bk.lists[k]
		for r := l.head; r != nil; {
			next := r.bnext
			if r.addr == line {
				c.unlink(r)
				r.prio, r.cls = PrioDemand, clsDemand
				bk.lists[clsDemand].insert(r)
				c.occ[clsDemand][b>>6] |= 1 << (b & 63)
				c.count[k]--
				c.count[clsDemand]++
			}
			r = next
		}
	}
}

// IdleLatency returns the no-contention read latency of this module in CPU
// cycles (closed bank: tRCD+tCAS+burst). Useful for tests and sanity checks.
func (m *Module) IdleLatency() uint64 { return m.tRCD + m.tCAS + m.burst }

// ResetStats zeroes all counters (e.g. after warm-up) without touching
// timing state.
func (m *Module) ResetStats() {
	m.stats = Stats{}
	for i := range m.chans {
		for b := range m.chans[i].banks {
			bk := &m.chans[i].banks[b]
			bk.rowHits, bk.rowMisses, bk.rowConflicts = 0, 0, 0
		}
	}
}
