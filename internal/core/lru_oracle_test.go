package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pageseer/internal/ckpt"
	"pageseer/internal/mem"
)

// corrOp is one data LLC miss fed to the correlator.
type corrOp struct {
	pid  int
	page mem.PPN
}

// genCorrStream builds a randomized correlator workload from seed: a Filter
// of 4–16 entries, LeaderDebounce 1 or 2, NoCorr on or off, and n misses
// from 1–4 interleaved pids. Each pid runs flurries of 1–24 misses on one
// page, with occasional stragglers jumbled in, and often moves on to the
// next page in a fixed order so followers train. The page pool is two to
// four times the Filter, so evictions are frequent.
func genCorrStream(seed int64, n int) (Config, []corrOp) {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.FilterEntries = 4 + rng.Intn(13)
	cfg.LeaderDebounce = 1 + uint32(rng.Intn(2))
	cfg.NoCorr = rng.Intn(2) == 0
	npids := 1 + rng.Intn(4)
	pages := 2*cfg.FilterEntries + rng.Intn(2*cfg.FilterEntries+1)
	cur := make([]mem.PPN, npids)
	left := make([]int, npids)
	ops := make([]corrOp, 0, n)
	for len(ops) < n {
		i := rng.Intn(npids)
		if left[i] == 0 {
			if rng.Intn(2) == 0 {
				cur[i] = (cur[i] + 1) % mem.PPN(pages)
			} else {
				cur[i] = mem.PPN(rng.Intn(pages))
			}
			left[i] = 1 + rng.Intn(24)
		}
		left[i]--
		page := cur[i]
		if rng.Intn(10) == 0 {
			page = mem.PPN(rng.Intn(pages))
		}
		ops = append(ops, corrOp{pid: i + 1, page: page})
	}
	return cfg, ops
}

// refFilterVictim is the Filter's original replacement rule as a full scan
// in arbitrary order: avoid an entry that is its pid's active leader while
// alternatives exist, and among the rest take the oldest stamp.
func refFilterVictim(entries []filterEntry, active func(*filterEntry) bool) *filterEntry {
	var victim *filterEntry
	for i := range entries {
		fe := &entries[i]
		activeLeader := active(fe)
		if victim == nil {
			victim = fe
			continue
		}
		victimActive := active(victim)
		switch {
		case victimActive && !activeLeader:
			victim = fe
		case victimActive == activeLeader && fe.lru < victim.lru:
			victim = fe
		}
	}
	return victim
}

// filterEntries copies the Filter's entries in map order.
func filterEntries(c *Correlator) []filterEntry {
	out := make([]filterEntry, 0, len(c.filter))
	for _, fe := range c.filter {
		out = append(out, *fe)
	}
	return out
}

// checkLRU verifies the Filter's LRU list: it links exactly the entries of
// the page index, stamps strictly increase from head to tail, the back
// links mirror the forward links, and no recycled entry is still linked.
func checkLRU(t testing.TB, c *Correlator) {
	t.Helper()
	linked := make(map[*filterEntry]bool, len(c.filter))
	var prev *filterEntry
	for fe := c.head; fe != nil; fe = fe.next {
		if linked[fe] {
			t.Fatalf("LRU list cycles at leader %d", fe.leader)
		}
		linked[fe] = true
		if fe.prev != prev {
			t.Fatalf("leader %d: back link does not name its predecessor", fe.leader)
		}
		if prev != nil && fe.lru <= prev.lru {
			t.Fatalf("LRU stamps not increasing: %d (leader %d) after %d (leader %d)",
				fe.lru, fe.leader, prev.lru, prev.leader)
		}
		if c.filter[fe.leader] != fe {
			t.Fatalf("listed leader %d is not the Filter's entry for that page", fe.leader)
		}
		prev = fe
	}
	if c.tail != prev {
		t.Fatal("tail is not the list's last entry")
	}
	if len(linked) != len(c.filter) {
		t.Fatalf("LRU list holds %d entries, Filter %d", len(linked), len(c.filter))
	}
	for fe := c.freeFE; fe != nil; fe = fe.next {
		if linked[fe] || fe.prev != nil {
			t.Fatalf("recycled entry (leader %d) still linked", fe.leader)
		}
	}
}

// runCorrOracle replays a generated stream, checking after every miss that
// the list's victim is the full scan's, and at every eviction that the
// entry written back is the one the scan picks from the Filter as it stood
// (with the pid state the eviction saw).
func runCorrOracle(t testing.TB, seed int64, n int) {
	cfg, ops := genCorrStream(seed, n)
	var c *Correlator
	var before []filterEntry
	flushing := false
	evictions := 0
	c = NewCorrelator(cfg, func(leader mem.PPN, _ bool) {
		if flushing {
			return
		}
		evictions++
		want := refFilterVictim(before, c.isActiveLeader)
		if want == nil || want.leader != leader {
			t.Fatalf("seed %d: eviction wrote back leader %d, scan picks %+v", seed, leader, want)
		}
	})
	for i, op := range ops {
		if len(c.filter) >= cfg.FilterEntries {
			before = filterEntries(c)
			got, want := c.lruVictim(), refFilterVictim(before, c.isActiveLeader)
			if got.leader != want.leader {
				t.Fatalf("seed %d op %d: list victim %d, scan victim %d", seed, i, got.leader, want.leader)
			}
		}
		c.OnMiss(op.pid, op.page)
		checkLRU(t, c)
	}
	if len(ops) > 4*cfg.FilterEntries && evictions == 0 {
		t.Fatalf("seed %d: stream never evicted", seed)
	}
	flushing = true
	c.Flush()
	checkLRU(t, c)
	if len(c.filter) != 0 {
		t.Fatalf("seed %d: Flush left %d entries", seed, len(c.filter))
	}
}

// TestFilterLRUMatchesScan: the LRU list's victim equals the original full
// scan's on randomized streams over Filter sizes 4–16, debounce 1 and 2,
// and NoCorr on and off.
func TestFilterLRUMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		runCorrOracle(t, seed, 2000)
	}
}

func FuzzCorrelator(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runCorrOracle(t, seed, 1000)
	})
}

// flushState drives a correlator, through OnMiss alone, into the state
// where Flush's order decides a follower count: leader A has learned
// follower B, and B's entry holds history 20 with a fresh count of 1. B's
// live count is 20 before B folds and 11 after; with a threshold of 14, A
// either keeps or loses its follower prefetch swap.
func flushState() *Correlator {
	const a, b, other = 100, 200, 300
	c := NewCorrelator(corrConfig(), nil)
	for i := 0; i < 20; i++ {
		c.OnMiss(1, b)
	}
	c.OnMiss(1, other)
	c.OnMiss(1, a)
	c.OnMiss(1, b) // B follows A; B re-activates: history 20, count 1
	// Pad the Filter so the two entries sit among others.
	for p := mem.PPN(1); p <= 5; p++ {
		c.OnMiss(2, 1000+p)
	}
	return c
}

// TestFlushDeterministic: the PCT after Flush must not depend on Go's map
// iteration order.
func TestFlushDeterministic(t *testing.T) {
	outcomes := map[uint32]int{}
	for i := 0; i < 200; i++ {
		c := flushState()
		c.Flush()
		outcomes[c.Snapshot(100).FollowerCount]++
	}
	if len(outcomes) != 1 {
		t.Fatalf("Flush outcome varies across runs: FollowerCount histogram %v", outcomes)
	}
}

// refPTE is the PTE-line cache's original map-backed residency with the
// full-scan victim, for the oracle test.
type refPTE struct {
	capacity                  int
	lines                     map[mem.Addr]uint64
	pending                   map[mem.Addr]int
	tick                      uint64
	hits, pendingHits, misses uint64
}

// refPTEVictim is the original scan: the line with the smallest stamp.
func refPTEVictim(lines map[mem.Addr]uint64) mem.Addr {
	var victim mem.Addr
	oldest := ^uint64(0)
	for l, stamp := range lines {
		if stamp < oldest {
			victim, oldest = l, stamp
		}
	}
	return victim
}

func (r *refPTE) insert(line mem.Addr) {
	if _, ok := r.lines[line]; !ok && len(r.lines) >= r.capacity {
		delete(r.lines, refPTEVictim(r.lines))
	}
	r.tick++
	r.lines[line] = r.tick
}

func (r *refPTE) obtain(line mem.Addr) {
	switch _, resident := r.lines[line]; {
	case resident:
		r.hits++
		r.tick++
		r.lines[line] = r.tick
	case r.pending[line] > 0:
		r.pendingHits++
		r.pending[line]++
	default:
		r.misses++
		r.pending[line] = 1
	}
}

func residentLines(p *PTECache) []mem.Addr {
	out := make([]mem.Addr, 0, len(p.lines))
	for _, s := range p.lines {
		out = append(out, s.line)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refPTE) resident() []mem.Addr {
	out := make([]mem.Addr, 0, len(r.lines))
	for l := range r.lines {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pteDriver replays a random Obtain/insert stream against a PTECache and
// the reference, completing deferred fetches in random order.
type pteDriver struct {
	rng      *rand.Rand
	p        *PTECache
	ref      *refPTE
	inflight []mem.Addr
	done     []func()
	readies  int
}

func newPTEDriver(seed int64, capacity int) *pteDriver {
	return &pteDriver{
		rng: rand.New(rand.NewSource(seed)),
		p:   NewPTECache(capacity),
		ref: &refPTE{capacity: capacity, lines: map[mem.Addr]uint64{}, pending: map[mem.Addr]int{}},
	}
}

func (d *pteDriver) step(t testing.TB, lines int) {
	t.Helper()
	line := mem.Addr(d.rng.Intn(lines)) << mem.LineShift
	switch k := d.rng.Intn(10); {
	case k < 5:
		d.p.Obtain(line, func(done func()) {
			d.inflight = append(d.inflight, line)
			d.done = append(d.done, done)
		}, func() { d.readies++ })
		d.ref.obtain(line)
	case k < 8:
		d.p.insert(line)
		d.ref.insert(line)
	default:
		d.complete(d.rng.Intn(len(d.inflight) + 1))
	}
	d.compare(t)
}

// complete finishes the i-th in-flight fetch (no-op when i is out of range).
func (d *pteDriver) complete(i int) {
	if i >= len(d.inflight) {
		return
	}
	line, done := d.inflight[i], d.done[i]
	d.inflight = append(d.inflight[:i], d.inflight[i+1:]...)
	d.done = append(d.done[:i], d.done[i+1:]...)
	d.ref.insert(line)
	delete(d.ref.pending, line)
	done()
}

func (d *pteDriver) drain() {
	for len(d.inflight) > 0 {
		d.complete(0)
	}
}

func (d *pteDriver) compare(t testing.TB) {
	t.Helper()
	p, r := d.p, d.ref
	if p.hits != r.hits || p.pendingHits != r.pendingHits || p.misses != r.misses {
		t.Fatalf("counters (hits %d, pending %d, misses %d), reference (%d, %d, %d)",
			p.hits, p.pendingHits, p.misses, r.hits, r.pendingHits, r.misses)
	}
	if got, want := residentLines(p), r.resident(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resident set %v, reference %v", got, want)
	}
	if len(p.pending) != len(r.pending) {
		t.Fatalf("%d fetches pending, reference %d", len(p.pending), len(r.pending))
	}
}

// TestPTECacheMatchesMapReference: the slot array serves the same hits,
// pending hits and misses, and keeps the same resident set, as the
// map-backed cache with the full-scan victim.
func TestPTECacheMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		capacity := 1 + int(seed%16)
		d := newPTEDriver(seed, capacity)
		for i := 0; i < 2000; i++ {
			d.step(t, 3*capacity)
		}
		d.drain()
		d.compare(t)
	}
}

// TestCorrelatorCheckpointContinues: snapshot a correlator and a PTE cache
// mid-stream, restore both into fresh instances, and continue the stream on
// the restored and the original copies side by side. Victims, PCT contents,
// stats and final checkpoint bytes must match.
func TestCorrelatorCheckpointContinues(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg, ops := genCorrStream(seed, 3000)
		var evA, evB []mem.PPN
		a := NewCorrelator(cfg, func(l mem.PPN, _ bool) { evA = append(evA, l) })
		b := NewCorrelator(cfg, func(l mem.PPN, _ bool) { evB = append(evB, l) })
		half := len(ops) / 2
		for _, op := range ops[:half] {
			a.OnMiss(op.pid, op.page)
		}
		pa := newPTEDriver(seed, 16)
		for i := 0; i < 1000; i++ {
			pa.step(t, 48)
		}
		pa.drain()

		w := ckpt.NewWriter()
		a.snapshotState(w)
		if err := pa.p.snapshotState(w); err != nil {
			t.Fatal(err)
		}
		data := w.Finish()
		r, err := ckpt.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		b.restoreState(r)
		pb := newPTEDriver(seed, 16)
		pb.p.restoreState(r)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		checkLRU(t, b)
		// Both drivers continue from the same random state and reference.
		pb.rng, pb.ref = rand.New(rand.NewSource(seed+1)), cloneRefPTE(pa.ref)
		pa.rng = rand.New(rand.NewSource(seed + 1))

		evA = evA[:0]
		for _, op := range ops[half:] {
			a.OnMiss(op.pid, op.page)
			b.OnMiss(op.pid, op.page)
			checkLRU(t, b)
		}
		for i := 0; i < 1000; i++ {
			pa.step(t, 48)
			pb.step(t, 48)
		}
		pa.drain()
		pb.drain()
		if !reflect.DeepEqual(evA, evB) {
			t.Fatalf("seed %d: restored victims diverged:\n%v\n%v", seed, evA, evB)
		}
		a.Flush()
		b.Flush()
		if !reflect.DeepEqual(a.pct, b.pct) || a.Stats() != b.Stats() {
			t.Fatalf("seed %d: restored correlator diverged (stats %+v vs %+v)", seed, a.Stats(), b.Stats())
		}
		wa, wb := ckpt.NewWriter(), ckpt.NewWriter()
		a.snapshotState(wa)
		b.snapshotState(wb)
		if err := pa.p.snapshotState(wa); err != nil {
			t.Fatal(err)
		}
		if err := pb.p.snapshotState(wb); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wa.Finish(), wb.Finish()) {
			t.Fatalf("seed %d: final checkpoint bytes differ", seed)
		}
	}
}

func cloneRefPTE(r *refPTE) *refPTE {
	c := *r
	c.lines = make(map[mem.Addr]uint64, len(r.lines))
	for k, v := range r.lines {
		c.lines[k] = v
	}
	c.pending = make(map[mem.Addr]int, len(r.pending))
	for k, v := range r.pending {
		c.pending[k] = v
	}
	return &c
}
