package cameo

import (
	"fmt"

	"pageseer/internal/ckpt"
)

// Snapshot serializes CAMEO's warm state: the block remap (both directions),
// the remap-cache residency, and the statistics. It refuses a non-quiesced
// manager (in-flight swaps).
func (c *CAMEO) Snapshot(w *ckpt.Writer) error {
	if n := c.slots.InFlight(); n != 0 {
		return fmt.Errorf("cameo: %d swap(s) in flight; snapshot requires quiescence", n)
	}
	w.Section("cameo")
	if err := c.remapCache.Snapshot(w); err != nil {
		return err
	}
	c.slots.Snapshot(w)
	w.U64(c.stats.Swaps)
	w.U64(c.stats.SwapsDropped)
	w.U64(c.stats.SwapsBlocked)
	return nil
}

// Restore rehydrates the state written by Snapshot into a freshly built
// manager.
func (c *CAMEO) Restore(r *ckpt.Reader) {
	r.Section("cameo")
	c.remapCache.Restore(r)
	c.slots.Restore(r)
	c.stats.Swaps = r.U64()
	c.stats.SwapsDropped = r.U64()
	c.stats.SwapsBlocked = r.U64()
}
