package sim

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"testing"
)

const sinkGoldenPath = "testdata/sink_records.json.gz"

// sinkRuns are the golden runs whose sink record logs are pinned: every
// swap-lifecycle emission site (PageSeer, PoM, MemPod, CAMEO) feeds one.
var sinkRuns = []string{"radix/pageseer", "GemsFDTD/pom", "GemsFDTD/mempod", "radix/cameo"}

// sinkRecords runs golden run name and renders its ledger record log and
// pagemap rows as canonical JSON. Results pin only the sinks' summaries;
// the logs add per-swap order, timing, victims and per-page residency.
func sinkRecords(t *testing.T, name string) []byte {
	t.Helper()
	var g goldenRun
	for _, r := range goldenRuns {
		if r.name == name {
			g = r
		}
	}
	if g.cfg == nil {
		t.Fatalf("no golden run %q", name)
	}
	sys, err := Build(g.cfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	canon, err := canonicalJSON(map[string]any{
		"ledger":  sys.Ledger().Records(),
		"pagemap": sys.PageMap().Rows(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// TestSinkRecordDigest pins the swap-lifecycle event stream across commits:
// each run's full ledger Records() and pagemap Rows() must hash to the
// committed sha256, and a mismatch reports the first differing field path.
// The committed file is gzip-compressed (CAMEO's 64B units make its logs
// large). Regenerate with
//
//	go test ./internal/sim -run TestSinkRecordDigest -update-golden
//
// only in a change that records which model change moved them and why.
func TestSinkRecordDigest(t *testing.T) {
	if *updateGolden {
		rec := map[string]goldenEntry{}
		for _, name := range sinkRuns {
			canon := sinkRecords(t, name)
			rec[name] = goldenEntry{SHA256: digest(canon), Fields: canon}
		}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		z, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		z.Write(out)
		if err := z.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sinkGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(sinkGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	z, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(z)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]goldenEntry
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(sinkRuns) {
		t.Fatalf("%s holds %d runs, want %d", sinkGoldenPath, len(rec), len(sinkRuns))
	}
	for _, name := range sinkRuns {
		t.Run(name, func(t *testing.T) {
			want, ok := rec[name]
			if !ok {
				t.Fatalf("%s has no record for %s", sinkGoldenPath, name)
			}
			if digest(want.Fields) != want.SHA256 {
				t.Fatalf("%s: stored fields do not match the stored digest", name)
			}
			got := sinkRecords(t, name)
			if d := digest(got); d != want.SHA256 {
				t.Fatalf("sink record digest %s, golden %s; first difference: %s",
					d, want.SHA256, firstDiff(want.Fields, got))
			}
		})
	}
}
