package cache

import (
	"math/rand"
	"slices"
	"testing"

	"pageseer/internal/engine"
	"pageseer/internal/mem"
)

// parkMem is a Backend that parks line reads until the test returns them,
// in any order, and drops writebacks.
type parkMem struct {
	lines []mem.Addr
	dones []func()
}

func (p *parkMem) Access(l mem.Addr, write bool, meta Meta, done func()) {
	if !write {
		p.lines = append(p.lines, l)
		p.dones = append(p.dones, done)
	}
}

// runMSHRStream drives a 4-set, 2-way cache with random accesses to 24
// lines (six per set, so every set's chain holds several misses at once)
// and out-of-order fill returns, checking after every step against a map
// from line to the parked requests: a miss merges exactly when the map
// holds its line and fetches otherwise, a fill releases the line's
// requests in arrival order, and the per-set chains hold exactly the map's
// lines, each in its own set.
func runMSHRStream(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sim := engine.New()
	pm := &parkMem{}
	c := New(sim, Config{Name: "M", SizeBytes: 8 * mem.LineSize, Ways: 2, LatencyCycles: 1}, pm)
	ref := map[mem.Addr][]int{}
	var released, want []int
	for step := 0; step < 600; step++ {
		if len(pm.lines) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(pm.lines))
			l, done := pm.lines[i], pm.dones[i]
			pm.lines = slices.Delete(pm.lines, i, i+1)
			pm.dones = slices.Delete(pm.dones, i, i+1)
			want = append(want, ref[l]...)
			delete(ref, l)
			done()
		} else {
			l := mem.Addr(rng.Intn(24)) << mem.LineShift
			before := c.Stats()
			reads := len(pm.lines)
			id := step
			c.Access(l, rng.Intn(2) == 0, Meta{}, func() { released = append(released, id) })
			sim.Drain(0)
			st := c.Stats()
			switch {
			case st.Hits > before.Hits:
				want = append(want, id)
			case ref[l] != nil:
				if st.MSHRMerges != before.MSHRMerges+1 || len(pm.lines) != reads {
					t.Fatalf("seed %d step %d: miss on outstanding line %#x did not merge", seed, step, uint64(l))
				}
				ref[l] = append(ref[l], id)
			default:
				if st.MSHRMerges != before.MSHRMerges || len(pm.lines) != reads+1 || pm.lines[reads] != l {
					t.Fatalf("seed %d step %d: miss on %#x did not fetch", seed, step, uint64(l))
				}
				ref[l] = []int{id}
			}
		}
		if !slices.Equal(released, want) {
			t.Fatalf("seed %d step %d: released %v, reference %v", seed, step, released, want)
		}
		checkMSHRChains(t, c, ref)
	}
}

func checkMSHRChains(t *testing.T, c *Cache, ref map[mem.Addr][]int) {
	t.Helper()
	seen := 0
	for set, h := range c.mshrHead {
		var prev *mshr
		for m := h; m != nil; m = m.setNext {
			if s, _ := c.index(m.line); int(s) != set || m.setPrev != prev {
				t.Fatalf("MSHR %#x chained in set %d (belongs to %d), back link ok %v", uint64(m.line), set, s, m.setPrev == prev)
			}
			if len(ref[m.line]) != len(m.waiters) {
				t.Fatalf("MSHR %#x holds %d waiters, reference %d", uint64(m.line), len(m.waiters), len(ref[m.line]))
			}
			prev = m
			seen++
		}
	}
	if seen != len(ref) || c.OutstandingMisses() != len(ref) || c.liveMSHR != len(ref) {
		t.Fatalf("%d MSHRs chained, %d counted, %d records live; reference %d", seen, c.OutstandingMisses(), c.liveMSHR, len(ref))
	}
}

func TestMSHRChainsMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		runMSHRStream(t, seed)
	}
}
