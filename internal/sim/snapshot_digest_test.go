package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

const snapshotDigestPath = "testdata/snapshot_digest.txt"

// snapshotDigestConfig is a sampled four-core mcf run under PageSeer: its
// fast-forward gaps fill the Filter, the PCT and the PTE-line cache, so the
// checkpoint bytes at a gap boundary cover their replacement state.
func snapshotDigestConfig() Config {
	cfg := DefaultConfig()
	cfg.Scheme = SchemePageSeer
	cfg.Workload = "mcf"
	cfg.MaxCores = 4
	cfg.InstrPerCore = 320_000
	cfg.Warmup = 160_000
	cfg.Sample, cfg.SampleWindow, cfg.SampleWarmup = 16, 1000, 1000
	return cfg
}

// baselineSnapshotConfig is a detailed four-core run of one baseline
// scheme; its warm-up leaves the slot-remap tables populated, so the
// checkpoint bytes at the warm-up/measurement boundary cover the location
// and occupant encoders.
func baselineSnapshotConfig(scheme Scheme, wl string, instr, warmup uint64) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Workload = wl
	cfg.MaxCores = 4
	cfg.InstrPerCore = instr
	cfg.Warmup = warmup
	return cfg
}

// snapshotRun is one quiesced snapshot whose bytes are pinned: line i of
// snapshotDigestPath holds run i's digest. The first line predates the
// baseline runs and carries no name; later lines name their run after the
// digest.
type snapshotRun struct {
	name  string
	cfg   func() Config
	point int // quiesce point to snapshot at
}

var snapshotRuns = []snapshotRun{
	{"mcf/pageseer/sampled", snapshotDigestConfig, 2},
	{"GemsFDTD/pom", func() Config { return baselineSnapshotConfig(SchemePoM, "GemsFDTD", 120_000, 60_000) }, 0},
	{"radix/mempod", func() Config { return baselineSnapshotConfig(SchemeMemPod, "radix", 200_000, 100_000) }, 0},
	{"radix/cameo", func() Config { return baselineSnapshotConfig(SchemeCAMEO, "radix", 200_000, 100_000) }, 0},
}

func snapshotDigest(t *testing.T, r snapshotRun) (string, int) {
	t.Helper()
	sys, err := Build(r.cfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunToQuiesce(func(p int) bool { return p == r.point }); err != ErrPaused {
		t.Fatalf("RunToQuiesce(stop@%d) = %v, want ErrPaused", r.point, err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), len(data)
}

// TestSnapshotDigest pins the checkpoint bytes across commits: the sha256
// of System.Snapshot at each run's quiesce point must match the committed
// digest. Rewrite it with -update-golden when a change is meant to move the
// machine's state or the checkpoint format, and say why in CHANGES.md.
func TestSnapshotDigest(t *testing.T) {
	if *updateGolden {
		var b strings.Builder
		for i, r := range snapshotRuns {
			got, _ := snapshotDigest(t, r)
			b.WriteString(got)
			if i > 0 {
				b.WriteString("  " + r.name)
			}
			b.WriteByte('\n')
		}
		if err := os.WriteFile(snapshotDigestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(snapshotDigestPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record it)", err)
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(lines) != len(snapshotRuns) {
		t.Fatalf("%s holds %d digests, want %d", snapshotDigestPath, len(lines), len(snapshotRuns))
	}
	for i, r := range snapshotRuns {
		t.Run(r.name, func(t *testing.T) {
			w := strings.Fields(lines[i])[0]
			if got, n := snapshotDigest(t, r); got != w {
				t.Fatalf("snapshot sha256 at quiesce point %d = %s, committed %s (%d bytes)", r.point, got, w, n)
			}
		})
	}
}
