package cache

import (
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// benchMem completes line reads after a fixed latency without allocating;
// writebacks are accepted and dropped.
type benchMem struct {
	sim     *engine.Sim
	latency uint64
}

func (m *benchMem) Access(l mem.Addr, write bool, meta Meta, done func()) {
	if done != nil {
		m.sim.After(m.latency, done)
	}
}

// BenchmarkCacheMissMerge times an L3-geometry cache under a burst of
// overlapping misses: each iteration issues 32 misses to distinct lines,
// with 16 of them sharing four sets, plus a merging second access to every
// line, then drains the fills.
func BenchmarkCacheMissMerge(b *testing.B) {
	sim := engine.New()
	c := New(sim, L3Config(), &benchMem{sim: sim, latency: 200})
	sets := uint64(L3Config().SizeBytes / mem.LineSize / L3Config().Ways)
	var lines [32]mem.Addr
	base := uint64(0)
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range lines {
			n := base + uint64(j)*977
			if j < 16 {
				n = base + uint64(j%4) + uint64(j/4)*sets
			}
			lines[j] = mem.Addr(n << mem.LineShift)
			c.Access(lines[j], j%3 == 0, Meta{}, done)
		}
		for j := range lines {
			c.Access(lines[j], false, Meta{}, done)
		}
		sim.Drain(0)
		base += 32 * sets
	}
}
