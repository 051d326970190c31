package pom

import (
	"fmt"
	"slices"

	"pageseer/internal/ckpt"
)

// Snapshot serializes PoM's warm state: the segment remap (both directions),
// the access counters and their decay cursor, the SRC residency, and the
// statistics. It refuses a non-quiesced manager (in-flight swaps).
func (p *PoM) Snapshot(w *ckpt.Writer) error {
	if n := p.slots.InFlight(); n != 0 {
		return fmt.Errorf("pom: %d swap(s) in flight; snapshot requires quiescence", n)
	}
	w.Section("pom")
	if err := p.src.Snapshot(w); err != nil {
		return err
	}
	p.slots.Snapshot(w)
	cnt := make([]seg, 0, len(p.counters))
	for s := range p.counters {
		cnt = append(cnt, s)
	}
	slices.Sort(cnt)
	w.Int(len(cnt))
	for _, s := range cnt {
		w.U64(uint64(s))
		w.U32(p.counters[s])
	}
	w.U64(p.lastDecay)
	w.U64(p.stats.Swaps)
	w.U64(p.stats.SwapsDeclined)
	w.U64(p.stats.SwapsBlocked)
	return nil
}

// Restore rehydrates the state written by Snapshot into a freshly built
// manager.
func (p *PoM) Restore(r *ckpt.Reader) {
	r.Section("pom")
	p.src.Restore(r)
	p.slots.Restore(r)
	p.counters = make(map[seg]uint32)
	for n := r.Int(); n > 0 && r.Err() == nil; n-- {
		s := seg(r.U64())
		p.counters[s] = r.U32()
	}
	p.lastDecay = r.U64()
	p.stats.Swaps = r.U64()
	p.stats.SwapsDeclined = r.U64()
	p.stats.SwapsBlocked = r.U64()
}
