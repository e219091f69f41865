package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestRecordKeySetGolden pins the suite's record-key set: every
// (family, algo, scenario, threads, unit, gauge keys) coordinate the full
// suite plus the ablations emits at a one-op, two-thread sweep. A refactor
// of the cell table must leave this file unchanged; regenerate it only for
// a deliberate change to the suite with
// `go test ./bench/ -run KeySetGolden -update`.
func TestRecordKeySetGolden(t *testing.T) {
	// T2, F9 and A1-A5 put GOMAXPROCS into their titles or sweeps.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rep, err := BuildReport(Config{Ops: 1, Threads: []int{1, 2}}, append(Experiments(), Ablations()...))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(rep.Records))
	seen := map[string]bool{}
	for _, r := range rep.Records {
		gauges := make([]string, 0, len(r.Gauges))
		for k := range r.Gauges {
			gauges = append(gauges, k)
		}
		sort.Strings(gauges)
		line := fmt.Sprintf("%s|%s|%s|%d|%s|%s", r.Family, r.Algo, r.Scenario, r.Threads, r.Unit, strings.Join(gauges, ","))
		if seen[line] {
			t.Errorf("duplicate record key %q", line)
		}
		seen[line] = true
		lines = append(lines, line)
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")
	path := filepath.Join("testdata", "record_keys.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./bench/ -run KeySetGolden -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gotSet := map[string]bool{}
		for _, l := range lines {
			gotSet[l] = true
		}
		for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
			if !gotSet[l] {
				t.Errorf("missing key: %s", l)
			}
			delete(gotSet, l)
		}
		for l := range gotSet {
			t.Errorf("unexpected key: %s", l)
		}
	}
}
