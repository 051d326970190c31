package hmc

import (
	"math/bits"
	"slices"

	"pageseer/internal/ckpt"
	"pageseer/internal/mem"
	"pageseer/internal/obs/ledger"
)

// SlotRemap is the remap bookkeeping the fixed-granularity schemes share
// (PoM, MemPod, CAMEO). Memory is cut into equal units; every unit's data
// lives in one slot of that size, and a swap exchanges the contents of two
// slots. U is the scheme's unit index (address >> log2 unit size). The
// scheme keeps its policy — which unit to swap into which slot, and when —
// while SlotRemap keeps the translation, the in-flight exchanges, the DMA
// freeze protocol and the checkpoint encoding.
type SlotRemap[U ~uint64] struct {
	ctl    *Controller
	shift  uint       // log2 unit bytes
	region MetaRegion // the DRAM-resident remap table

	// location[u] = slot holding unit u's data; occupant[slot] = unit whose
	// data the slot holds. Identity when absent.
	location map[U]U
	occupant map[U]U

	// inflight maps both slots of every running exchange to its job; jobs
	// counts the exchanges.
	inflight map[U]*slotJob[U]
	jobs     int

	// onCommit runs the scheme's own post-commit steps, last in every
	// exchange's completion.
	onCommit func(unit, slot U)
}

// slotJob is one running exchange: unit's data moves from slot from into
// slot to, and displaced (the data in to) moves into from. The op and its
// transfers live in the job, so starting an exchange costs one record.
type slotJob[U ~uint64] struct {
	m                         *SlotRemap[U]
	unit, from, to, displaced U
	op                        Op
	stages                    [1]Stage
	xfer                      [2]Transfer
	waiters                   []func() // DMA freezes waiting for the commit
}

// NewSlotRemap builds identity bookkeeping over units of unitBytes (a power
// of two no larger than a page) whose remap table is region. onCommit runs
// after each exchange commits and its freeze waiters are released, with the
// unit that moved into its new slot.
func NewSlotRemap[U ~uint64](ctl *Controller, unitBytes uint64, region MetaRegion, onCommit func(unit, slot U)) *SlotRemap[U] {
	return &SlotRemap[U]{
		ctl:      ctl,
		shift:    uint(bits.TrailingZeros64(unitBytes)),
		region:   region,
		location: make(map[U]U),
		occupant: make(map[U]U),
		inflight: make(map[U]*slotJob[U]),
		onCommit: onCommit,
	}
}

func (m *SlotRemap[U]) base(u U) mem.Addr { return mem.Addr(u) << m.shift }

// Locate returns the slot currently holding unit u's data.
func (m *SlotRemap[U]) Locate(u U) U {
	if l, ok := m.location[u]; ok {
		return l
	}
	return u
}

// Occupant returns the unit whose data slot currently holds.
func (m *SlotRemap[U]) Occupant(slot U) U {
	if o, ok := m.occupant[slot]; ok {
		return o
	}
	return slot
}

func (m *SlotRemap[U]) setOccupant(slot, data U) {
	if slot == data {
		delete(m.occupant, slot)
		delete(m.location, data)
		return
	}
	m.occupant[slot] = data
	m.location[data] = slot
}

// TranslateLine returns the physical line holding OS-visible line addr.
func (m *SlotRemap[U]) TranslateLine(addr mem.Addr) mem.Addr {
	u := U(addr >> m.shift)
	return m.base(m.Locate(u)) + (addr - m.base(u))
}

// Verify checks the translation against the controller's data oracle.
func (m *SlotRemap[U]) Verify() error {
	return m.ctl.Oracle.VerifyAll(func(d uint64) uint64 { return uint64(m.Locate(U(d))) })
}

// Busy reports whether slot takes part in a running exchange.
func (m *SlotRemap[U]) Busy(slot U) bool { return m.inflight[slot] != nil }

// InFlight returns the number of running exchanges.
func (m *SlotRemap[U]) InFlight() int { return m.jobs }

// Frozen reports whether the page holding unit u is frozen by DMA.
func (m *SlotRemap[U]) Frozen(u U) bool { return m.ctl.FrozenByDMA(mem.PageOf(m.base(u))) }

// Pinned reports whether slot must never move: it overlaps the remap table
// itself or a page-table frame.
func (m *SlotRemap[U]) Pinned(slot U) bool {
	a := m.base(slot)
	if a >= m.region.Base && uint64(a-m.region.Base) < m.region.Bytes {
		return true
	}
	return m.ctl.OS.IsPageTable(mem.PageOf(a))
}

// ExchangeResult is the outcome of SlotRemap.TryExchange.
type ExchangeResult int

const (
	Exchanged       ExchangeResult = iota // the swap started
	ExchangeNoop                          // the unit already sits in the slot
	ExchangeBlocked                       // a slot is busy or pinned, or a unit frozen by DMA
	ExchangeRefused                       // the swap engine refused the op (all buffers busy)
)

// TryExchange starts a regular swap moving unit u's data into slot to, and
// the data now in to into u's current slot: two concurrent transfers in one
// stage. It starts nothing when u already sits in to, when either slot takes
// part in a running exchange, when either unit's page is frozen by DMA, or
// when to is pinned; the scheme counts the outcome as its own stats.
func (m *SlotRemap[U]) TryExchange(u, to U) ExchangeResult {
	from := m.Locate(u)
	if from == to {
		return ExchangeNoop
	}
	if m.Busy(to) || m.Busy(from) {
		return ExchangeBlocked
	}
	displaced := m.Occupant(to)
	if m.Frozen(u) || m.Frozen(displaced) || m.Pinned(to) {
		return ExchangeBlocked
	}
	j := &slotJob[U]{m: m, unit: u, from: from, to: to, displaced: displaced}
	unitBytes := uint64(1) << m.shift
	j.xfer = [2]Transfer{
		{Src: m.base(from), Dst: m.base(to), Bytes: unitBytes},
		{Src: m.base(to), Dst: m.base(from), Bytes: unitBytes},
	}
	j.stages[0] = j.xfer[:]
	j.op = Op{Stages: j.stages[:], OnComplete: j.commit}
	now := m.ctl.Sim.Now()
	if !m.ctl.StartSwap(&j.op, SwapMeta{Page: m.base(u), Victim: m.base(displaced), Trigger: ledger.TrigRegular, Req: now}) {
		return ExchangeRefused
	}
	m.inflight[to], m.inflight[from] = j, j
	m.jobs++
	return Exchanged
}

// commit is the exchange's OnComplete: the data of unit and displaced have
// traded slots. It updates the remap, the oracle and the remap-table entry,
// releases the slots and any freeze waiters, then runs the scheme's own
// post-commit steps.
func (j *slotJob[U]) commit() {
	m := j.m
	m.setOccupant(j.to, j.unit)
	m.setOccupant(j.from, j.displaced)
	m.ctl.Oracle.Exchange(uint64(j.to), uint64(j.from))
	m.ctl.IssueLine(m.region.EntryAddr(uint64(j.to)), true, PrioSwap, nil)
	delete(m.inflight, j.to)
	delete(m.inflight, j.from)
	m.jobs--
	for _, w := range j.waiters {
		w()
	}
	m.onCommit(j.unit, j.to)
}

// FreezePage implements Manager.FreezePage for the units of page: done runs
// once every running exchange involving one of them has committed (at once
// if none is running). Swaps that would start later are the scheme's to
// refuse, through Frozen.
func (m *SlotRemap[U]) FreezePage(page mem.PPN, done func()) {
	first := U(page.Addr() >> m.shift)
	var jobs []*slotJob[U]
	for u := first; u < first+U(mem.PageSize>>m.shift); u++ {
		for _, slot := range [2]U{m.Locate(u), u} {
			if j := m.inflight[slot]; j != nil && !slices.Contains(jobs, j) {
				jobs = append(jobs, j)
			}
		}
	}
	if len(jobs) == 0 {
		done()
		return
	}
	remaining := len(jobs)
	release := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	for _, j := range jobs {
		j.waiters = append(j.waiters, release)
	}
}

// Snapshot writes the remap in both directions, each sorted by unit. The
// caller guarantees quiescence (InFlight() == 0).
func (m *SlotRemap[U]) Snapshot(w *ckpt.Writer) {
	for _, t := range [2]map[U]U{m.location, m.occupant} {
		keys := make([]U, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		w.Int(len(keys))
		for _, k := range keys {
			w.U64(uint64(k))
			w.U64(uint64(t[k]))
		}
	}
}

// Restore reads the remap written by Snapshot.
func (m *SlotRemap[U]) Restore(r *ckpt.Reader) {
	for _, t := range [2]map[U]U{m.location, m.occupant} {
		clear(t)
		for n := r.Int(); n > 0 && r.Err() == nil; n-- {
			k := U(r.U64())
			t[k] = U(r.U64())
		}
	}
}
