package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_results.json from the current build")

const goldenPath = "testdata/golden_results.json"

// goldenRun is one short-budget simulation whose full Results are pinned
// across commits.
type goldenRun struct {
	name string
	cfg  func() Config
}

// goldenConfig is a four-core run with every observability digest armed, so
// the pinned Results also cover the ledger, the CPI stacks (which read the
// memory scheduler's queue-wait split) and the pagemap.
func goldenConfig(scheme Scheme, wl string, instr, warmup uint64) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Workload = wl
	cfg.MaxCores = 4
	cfg.InstrPerCore = instr
	cfg.Warmup = warmup
	cfg.Obs.Ledger = true
	cfg.Obs.CPI = true
	cfg.Obs.PageMap = true
	return cfg
}

// goldenRuns load the memory scheduler the way the benchmark workloads do:
// a scattered, write-heavy NVM stream (radix), the Figure 14 scheme
// comparison (GemsFDTD), and a sampled run whose windows start from
// fast-forwarded state (mcf). The radix runs of CAMEO, PoM and MemPod drive
// the metadata cache under heavy miss traffic; static and PageSeer-NoCorr
// cover the remaining managers.
var goldenRuns = []goldenRun{
	{"radix/pageseer", func() Config { return goldenConfig(SchemePageSeer, "radix", 200_000, 100_000) }},
	{"GemsFDTD/pageseer", func() Config { return goldenConfig(SchemePageSeer, "GemsFDTD", 120_000, 60_000) }},
	{"GemsFDTD/pom", func() Config { return goldenConfig(SchemePoM, "GemsFDTD", 120_000, 60_000) }},
	{"GemsFDTD/mempod", func() Config { return goldenConfig(SchemeMemPod, "GemsFDTD", 120_000, 60_000) }},
	{"mcf/pageseer/sampled", func() Config {
		cfg := goldenConfig(SchemePageSeer, "mcf", 320_000, 160_000)
		cfg.Sample, cfg.SampleWindow, cfg.SampleWarmup = 16, 1000, 1000
		return cfg
	}},
	{"radix/cameo", func() Config { return goldenConfig(SchemeCAMEO, "radix", 200_000, 100_000) }},
	{"radix/pom", func() Config { return goldenConfig(SchemePoM, "radix", 200_000, 100_000) }},
	{"radix/mempod", func() Config { return goldenConfig(SchemeMemPod, "radix", 200_000, 100_000) }},
	{"GemsFDTD/static", func() Config { return goldenConfig(SchemeStatic, "GemsFDTD", 120_000, 60_000) }},
	{"GemsFDTD/pageseer-nocorr", func() Config { return goldenConfig(SchemePageSeerNoCorr, "GemsFDTD", 120_000, 60_000) }},
}

// goldenEntry is one run's committed record: the digest the test gates on,
// and the canonical field values it reports the first difference from.
type goldenEntry struct {
	SHA256 string          `json:"sha256"`
	Fields json.RawMessage `json:"results"`
}

// canonicalJSON renders v as JSON with every object's keys sorted and
// numbers kept verbatim (no float round-trip), so the bytes, and their
// digest, depend only on the field values.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree) // map keys marshal sorted
}

// flatten lists every leaf of a decoded JSON tree as path -> value, with
// paths like "DRAM.RowHits" or "Latency.DRAM.Count".
func flatten(prefix string, v any, out map[string]string) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, c, out)
		}
	case []any:
		for i, c := range t {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), c, out)
		}
	default:
		out[prefix] = fmt.Sprint(t)
	}
}

func leaves(canon []byte) (map[string]string, error) {
	dec := json.NewDecoder(bytes.NewReader(canon))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	out := map[string]string{}
	flatten("", tree, out)
	return out, nil
}

// firstDiff names the first field path, in sorted order, whose value
// differs between two canonical Results encodings.
func firstDiff(want, got []byte) string {
	w, err := leaves(want)
	if err != nil {
		return "golden record unreadable: " + err.Error()
	}
	g, err := leaves(got)
	if err != nil {
		return "fresh record unreadable: " + err.Error()
	}
	paths := make([]string, 0, len(w)+len(g))
	for p := range w {
		paths = append(paths, p)
	}
	for p := range g {
		if _, ok := w[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		wv, wok := w[p]
		gv, gok := g[p]
		switch {
		case !wok:
			return fmt.Sprintf("%s: new field (= %s)", p, gv)
		case !gok:
			return fmt.Sprintf("%s: field gone (was %s)", p, wv)
		case wv != gv:
			return fmt.Sprintf("%s: golden %s, now %s", p, wv, gv)
		}
	}
	return "no leaf differs (encoding changed)"
}

func runGolden(t *testing.T, g goldenRun) []byte {
	t.Helper()
	sys, err := Build(g.cfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := canonicalJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenResultsDigest pins behaviour across commits: each golden run's
// full Results (every counter, histogram, ledger, CPI and pagemap digest)
// must hash to the committed sha256. A mismatch reports the first differing
// field path. Regenerate with
//
//	go test ./internal/sim -run TestGoldenResultsDigest -update-golden
//
// only in a change that records which model change moved the digests and
// why.
func TestGoldenResultsDigest(t *testing.T) {
	if *updateGolden {
		rec := map[string]goldenEntry{}
		for _, g := range goldenRuns {
			canon := runGolden(t, g)
			rec[g.name] = goldenEntry{SHA256: digest(canon), Fields: canon}
		}
		out, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]goldenEntry
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(goldenRuns) {
		t.Fatalf("%s holds %d runs, want %d", goldenPath, len(rec), len(goldenRuns))
	}
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			want, ok := rec[g.name]
			if !ok {
				t.Fatalf("%s has no record for %s", goldenPath, g.name)
			}
			// The stored fields are indented by MarshalIndent; compact them
			// back to the canonical bytes the digest covers.
			var stored bytes.Buffer
			if err := json.Compact(&stored, want.Fields); err != nil {
				t.Fatal(err)
			}
			if digest(stored.Bytes()) != want.SHA256 {
				t.Fatalf("%s: stored fields do not match the stored digest", g.name)
			}
			got := runGolden(t, g)
			if d := digest(got); d != want.SHA256 {
				t.Fatalf("Results digest %s, golden %s; first difference: %s",
					d, want.SHA256, firstDiff(stored.Bytes(), got))
			}
		})
	}
}
