package mempod

import (
	"fmt"
	"sort"

	"pageseer/internal/ckpt"
)

// snapshotState serializes the sketch: its counters (sorted by element) and
// the increment/decrement totals.
func (m *MEA) snapshotState(w *ckpt.Writer) {
	keys := make([]uint64, 0, len(m.counts))
	for k := range m.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Int(len(keys))
	for _, k := range keys {
		w.U64(k)
		w.U32(m.counts[k])
	}
	w.U64(m.Increments)
	w.U64(m.Decrements)
}

func (m *MEA) restoreState(r *ckpt.Reader) {
	m.counts = make(map[uint64]uint32)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		k := r.U64()
		m.counts[k] = r.U32()
	}
	m.Increments = r.U64()
	m.Decrements = r.U64()
}

// Snapshot serializes MemPod's warm state: the segment remap (both
// directions), each pod's MEA sketch and victim cursor, the remap-cache
// residency, the interval clock, and the statistics. It refuses a
// non-quiesced manager (in-flight migrations or queued interval work).
func (m *MemPod) Snapshot(w *ckpt.Writer) error {
	if n := m.slots.InFlight(); n != 0 || len(m.pending) != 0 {
		return fmt.Errorf("mempod: %d migration(s) in flight, %d queued; snapshot requires quiescence",
			n, len(m.pending))
	}
	w.Section("mempod")
	if err := m.remapCache.Snapshot(w); err != nil {
		return err
	}
	m.slots.Snapshot(w)
	w.Int(len(m.pods))
	for i := range m.pods {
		m.pods[i].mea.snapshotState(w)
		w.U64(uint64(m.pods[i].nextVictim))
	}
	w.U64(m.lastTick)
	w.U64(m.stats.Migrations)
	w.U64(m.stats.MigrationsDropped)
	w.U64(m.stats.Intervals)
	return nil
}

// Restore rehydrates the state written by Snapshot into a freshly built
// manager.
func (m *MemPod) Restore(r *ckpt.Reader) {
	r.Section("mempod")
	m.remapCache.Restore(r)
	m.slots.Restore(r)
	if n := r.Int(); n != len(m.pods) {
		r.Failf("mempod: snapshot has %d pod(s), built %d", n, len(m.pods))
		return
	}
	for i := range m.pods {
		m.pods[i].mea.restoreState(r)
		m.pods[i].nextVictim = seg(r.U64())
	}
	m.lastTick = r.U64()
	m.stats.Migrations = r.U64()
	m.stats.MigrationsDropped = r.U64()
	m.stats.Intervals = r.U64()
}
