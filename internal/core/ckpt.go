package core

import (
	"fmt"
	"slices"
	"sort"

	"pageseer/internal/ckpt"
	"pageseer/internal/mem"
)

// This file serializes the PageSeer manager's warm structures. Helpers on
// the inner components (HPT, Correlator, PTECache) are unexported: they are
// only reachable through PageSeer.Snapshot/Restore, which owns the quiesce
// preconditions.

func writePCTEntry(w *ckpt.Writer, e PCTEntry) {
	w.U32(e.Count)
	w.U64(uint64(e.Follower))
	w.U32(e.FollowerCount)
	w.Bool(e.HasFollower)
}

func readPCTEntry(r *ckpt.Reader) PCTEntry {
	var e PCTEntry
	e.Count = r.U32()
	e.Follower = mem.PPN(r.U64())
	e.FollowerCount = r.U32()
	e.HasFollower = r.Bool()
	return e
}

func sortedPPNs[V any](m map[mem.PPN]V) []mem.PPN {
	keys := make([]mem.PPN, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (h *HPT) snapshotState(w *ckpt.Writer) {
	w.Section("core.hpt")
	w.U64(h.lastDecay)
	w.U64(h.inserts)
	w.U64(h.evictions)
	w.U64(h.decays)
	keys := sortedPPNs(h.entries)
	w.Int(len(keys))
	for _, p := range keys {
		w.U64(uint64(p))
		w.U32(h.entries[p])
	}
}

func (h *HPT) restoreState(r *ckpt.Reader) {
	r.Section("core.hpt")
	h.lastDecay = r.U64()
	h.inserts = r.U64()
	h.evictions = r.U64()
	h.decays = r.U64()
	h.entries = make(map[mem.PPN]uint32)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		p := mem.PPN(r.U64())
		h.entries[p] = r.U32()
	}
}

func (c *Correlator) snapshotState(w *ckpt.Writer) {
	w.Section("core.corr")
	w.U64(c.tick)
	w.U64(c.stats.Invocations)
	w.U64(c.stats.Writebacks)
	w.U64(c.stats.EffectiveWritebacks)
	w.U64(c.stats.FollowerChanges)
	pctKeys := sortedPPNs(c.pct)
	w.Int(len(pctKeys))
	for _, p := range pctKeys {
		w.U64(uint64(p))
		writePCTEntry(w, c.pct[p])
	}
	filtKeys := sortedPPNs(c.filter)
	w.Int(len(filtKeys))
	for _, p := range filtKeys {
		fe := c.filter[p]
		w.U64(uint64(p))
		w.Int(fe.pid)
		w.U64(uint64(fe.leader))
		writePCTEntry(w, fe.old)
		w.U32(fe.count)
		for i := range fe.succ {
			w.U64(uint64(fe.succ[i].page))
			w.U32(fe.succ[i].n)
			w.Bool(fe.succ[i].valid)
		}
		w.U64(fe.lru)
	}
	// The four per-pid tables, each as (pid, value) pairs over the pids
	// that hold a key in it, ascending.
	c.writePids(w, func(st *pidState) bool { return st.inLeader }, func(st *pidState) { w.U64(uint64(st.leader)) })
	c.writePids(w, func(st *pidState) bool { return st.inHasLead }, func(st *pidState) { w.Bool(st.hasLead) })
	c.writePids(w, func(st *pidState) bool { return st.inCand }, func(st *pidState) { w.U64(uint64(st.cand)) })
	c.writePids(w, func(st *pidState) bool { return st.inCandN }, func(st *pidState) { w.U32(st.candN) })
}

func (c *Correlator) writePids(w *ckpt.Writer, in func(*pidState) bool, val func(*pidState)) {
	n := 0
	for i := range c.pids {
		if in(&c.pids[i]) {
			n++
		}
	}
	w.Int(n)
	for i := range c.pids {
		if st := &c.pids[i]; in(st) {
			w.Int(i)
			val(st)
		}
	}
}

// readPids reads one table written by writePids, calling set on each
// listed pid's state.
func (c *Correlator) readPids(r *ckpt.Reader, set func(*pidState)) {
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		// pids are 1..cores; the bound keeps a bad record from sizing the
		// per-pid table.
		pid := r.Int()
		if pid < 0 || pid > 1<<16 {
			r.Failf("core.corr: pid %d out of range", pid)
			return
		}
		set(c.state(pid))
	}
}

func (c *Correlator) restoreState(r *ckpt.Reader) {
	r.Section("core.corr")
	c.tick = r.U64()
	c.stats.Invocations = r.U64()
	c.stats.Writebacks = r.U64()
	c.stats.EffectiveWritebacks = r.U64()
	c.stats.FollowerChanges = r.U64()
	c.pct = make(map[mem.PPN]PCTEntry)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		p := mem.PPN(r.U64())
		c.pct[p] = readPCTEntry(r)
	}
	c.filter = make(map[mem.PPN]*filterEntry)
	c.head, c.tail, c.freeFE = nil, nil, nil
	var entries []*filterEntry
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		p := mem.PPN(r.U64())
		fe := &filterEntry{}
		fe.pid = r.Int()
		fe.leader = mem.PPN(r.U64())
		fe.old = readPCTEntry(r)
		fe.count = r.U32()
		for i := range fe.succ {
			fe.succ[i].page = mem.PPN(r.U64())
			fe.succ[i].n = r.U32()
			fe.succ[i].valid = r.Bool()
		}
		fe.lru = r.U64()
		c.filter[p] = fe
		entries = append(entries, fe)
	}
	// Rebuild the LRU list from the stored stamps.
	sort.Slice(entries, func(i, j int) bool { return entries[i].lru < entries[j].lru })
	for _, fe := range entries {
		c.linkTail(fe)
	}
	c.pids = nil
	c.readPids(r, func(st *pidState) { st.leader, st.inLeader = mem.PPN(r.U64()), true })
	c.readPids(r, func(st *pidState) { st.hasLead, st.inHasLead = r.Bool(), true })
	c.readPids(r, func(st *pidState) { st.cand, st.inCand = mem.PPN(r.U64()), true })
	c.readPids(r, func(st *pidState) { st.candN, st.inCandN = r.U32(), true })
}

func (p *PTECache) snapshotState(w *ckpt.Writer) error {
	if len(p.pending) != 0 {
		return fmt.Errorf("pte cache: %d fetch(es) in flight; snapshot requires quiescence", len(p.pending))
	}
	w.Section("core.pte")
	w.U64(p.tick)
	w.U64(p.hits)
	w.U64(p.pendingHits)
	w.U64(p.misses)
	lines := slices.Clone(p.lines)
	sort.Slice(lines, func(i, j int) bool { return lines[i].line < lines[j].line })
	w.Int(len(lines))
	for _, l := range lines {
		w.U64(uint64(l.line))
		w.U64(l.stamp)
	}
	return nil
}

func (p *PTECache) restoreState(r *ckpt.Reader) {
	r.Section("core.pte")
	p.tick = r.U64()
	p.hits = r.U64()
	p.pendingHits = r.U64()
	p.misses = r.U64()
	p.lines = p.lines[:0]
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		l := mem.Addr(r.U64())
		p.lines = append(p.lines, pteSlot{line: l, stamp: r.U64()})
	}
}

// Snapshot serializes the manager's full warm state: the PRT remap, the
// metadata-cache residency, correlator, hot-page tables, PTE cache, the
// Swap Driver's utilization window and round-robin cursors, prefetch
// accuracy tracks, fast-forward accounting, and the statistics. It refuses
// a non-quiesced manager (in-flight swap jobs or queued swap requests).
func (p *PageSeer) Snapshot(w *ckpt.Writer) error {
	if len(p.inflight) != 0 || len(p.pendingPref) != 0 || len(p.pendingReg) != 0 || len(p.pendingKind) != 0 {
		return fmt.Errorf("pageseer: %d swap(s) in flight, %d+%d queued; snapshot requires quiescence",
			len(p.inflight), len(p.pendingPref), len(p.pendingReg))
	}
	w.Section("core.pageseer")
	if err := p.prtc.Snapshot(w); err != nil {
		return err
	}
	if err := p.pctc.Snapshot(w); err != nil {
		return err
	}
	p.corr.snapshotState(w)
	p.hptDRAM.snapshotState(w)
	p.hptNVM.snapshotState(w)
	if err := p.pte.snapshotState(w); err != nil {
		return err
	}
	keys := sortedPPNs(p.remap)
	w.Int(len(keys))
	for _, k := range keys {
		w.U64(uint64(k))
		w.U64(uint64(p.remap[k]))
	}
	colors := sortedInts(p.colorRR)
	w.Int(len(colors))
	for _, c := range colors {
		w.Int(c)
		w.U64(uint64(p.colorRR[c]))
	}
	w.U64(p.utilCheckedAt)
	w.U64(p.utilLastBusy)
	w.F64(p.utilRecent)
	tracks := sortedPPNs(p.prefTracks)
	w.Int(len(tracks))
	for _, pg := range tracks {
		t := p.prefTracks[pg]
		w.U64(uint64(pg))
		w.U64(t.count)
		w.Int(int(t.kind))
	}
	w.U64(p.ffBudget)
	w.U64(p.ffCommits)
	w.U64(p.ffVirtual)
	for k := range p.stats.SwapsStarted {
		w.U64(p.stats.SwapsStarted[k])
		w.U64(p.stats.SwapsCompleted[k])
	}
	w.U64(p.stats.DeclinedBW)
	w.U64(p.stats.DeclinedNoVictim)
	w.U64(p.stats.DeclinedQueue)
	w.U64(p.stats.OptimizedSlow)
	w.U64(p.stats.HintsReceived)
	w.U64(p.stats.PrefetchTracked)
	w.U64(p.stats.PrefetchAccurate)
	return nil
}

// Restore rehydrates the state written by Snapshot into a freshly built
// manager.
func (p *PageSeer) Restore(r *ckpt.Reader) {
	r.Section("core.pageseer")
	p.prtc.Restore(r)
	p.pctc.Restore(r)
	p.corr.restoreState(r)
	p.hptDRAM.restoreState(r)
	p.hptNVM.restoreState(r)
	p.pte.restoreState(r)
	p.remap = make(map[mem.PPN]mem.PPN)
	clear(p.remapped)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		k := mem.PPN(r.U64())
		p.remap[k] = mem.PPN(r.U64())
		p.markRemapped(k)
	}
	p.colorRR = make(map[int]mem.PPN)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		c := r.Int()
		p.colorRR[c] = mem.PPN(r.U64())
	}
	p.utilCheckedAt = r.U64()
	p.utilLastBusy = r.U64()
	p.utilRecent = r.F64()
	p.prefTracks = make(map[mem.PPN]*prefTrack)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		pg := mem.PPN(r.U64())
		t := &prefTrack{}
		t.count = r.U64()
		t.kind = SwapKind(r.Int())
		p.prefTracks[pg] = t
	}
	p.ffBudget = r.U64()
	p.ffCommits = r.U64()
	p.ffVirtual = r.U64()
	for k := range p.stats.SwapsStarted {
		p.stats.SwapsStarted[k] = r.U64()
		p.stats.SwapsCompleted[k] = r.U64()
	}
	p.stats.DeclinedBW = r.U64()
	p.stats.DeclinedNoVictim = r.U64()
	p.stats.DeclinedQueue = r.U64()
	p.stats.OptimizedSlow = r.U64()
	p.stats.HintsReceived = r.U64()
	p.stats.PrefetchTracked = r.U64()
	p.stats.PrefetchAccurate = r.U64()
}
