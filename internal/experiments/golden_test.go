package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestCombineExperimentsGolden pins the bits of the four experiments
// that exercise the ensemble combine: the SHA-256 of each quick run's
// streamed series table and of its rendered report (result lines and
// shape checks). TestAllExperimentsQuick only checks shape thresholds;
// this test fails on any change to a combined read, selection sweep or
// asymmetry correction that moves a single bit of the output, so a
// refactor of the combine must either keep it passing or re-record the
// digests with a stated reason.
func TestCombineExperimentsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; the %s compiler may fuse multiply-adds, which changes the low bits of the series", runtime.GOARCH)
	}
	golden := []struct {
		id, series, report string
	}{
		{"ensemble", "ab87775919bf4359174f1e9f57b411a0006f4a69f97f0eeda671b13d5e4fb574", "0b67325b47abd83d121af9db2c8bceca40eb967c0cb36157d38a60dd20b7b3d6"},
		{"select", "df0153fc3a4c655c6840eb754c2773ca46c9bd6a54fd878bc9077ec0a745545d", "d4cf1ea901403dbec0596da03ea9a28ab57274adc190182ad77b45723124a55f"},
		{"asym", "ec4b6e6ea395b5dbb885694c51d133d0901df22eda4a1f2853a219ff865e723e", "8e607ce724bc89b03f97f7ac636d678a5ed6351d912bb9e5ff45ccef80c97a5d"},
		{"chaos", "e139aa2bd7a23dddfea353a7b3095e73ebf5ba83c1a94a8d3dc62ea1d5d0a915", "339043ec5a19b8bf234dd319cd060b79ce8d86cd3ea454062c09aa6e1bba1732"},
	}
	for _, g := range golden {
		t.Run(g.id, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rep, err := Run(g.id, Options{Quick: true, OutputDir: dir})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			series, err := os.ReadFile(filepath.Join(dir, g.id+"_series.tsv"))
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(series); got != g.series {
				t.Errorf("series table sha256 = %s, want %s", got, g.series)
			}
			if got := digest([]byte(rep.Render())); got != g.report {
				t.Errorf("report sha256 = %s, want %s\n%s", got, g.report, rep.Render())
			}
		})
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
