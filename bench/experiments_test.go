package bench

import (
	"strings"
	"testing"
)

// TestExperimentsSmoke runs every experiment at smoke size on a tiny
// sweep: every record must be labelled and non-negative, and the text
// render must name the experiment.
func TestExperimentsSmoke(t *testing.T) {
	cfg := Config{Quick: true, Threads: []int{1, 2}, Ops: 2000}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) { checkExperiment(t, e, cfg) })
	}
}

func checkExperiment(t *testing.T, e Experiment, cfg Config) {
	recs, err := e.Records(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s produced no records", e.ID)
	}
	for _, r := range recs {
		if r.Family == "" || r.Algo == "" || r.Scenario == "" || r.Unit == "" {
			t.Fatalf("%s: unlabelled record %+v", e.ID, r)
		}
		if r.Value < 0 || r.Ops < 0 || r.ElapsedNs < 0 || r.NsPerOp < 0 {
			t.Fatalf("%s/%s: negative measurement %+v", e.ID, r.Algo, r)
		}
	}
	var sb strings.Builder
	if err := e.Render(&sb, recs); err != nil {
		t.Fatalf("%s: render: %v", e.ID, err)
	}
	if !strings.Contains(sb.String(), e.ID) {
		t.Fatalf("%s: render output missing experiment ID:\n%s", e.ID, sb.String())
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("F1"); !ok {
		t.Fatal("F1 not found")
	}
	if _, ok := Find("A1"); !ok {
		t.Fatal("A1 not found")
	}
	if _, ok := Find("F99"); ok {
		t.Fatal("phantom experiment found")
	}
}

// TestAblationsSmoke runs the ablation sweeps at smoke size.
func TestAblationsSmoke(t *testing.T) {
	cfg := Config{Quick: true, Ops: 2000}
	for _, e := range Ablations() {
		t.Run(e.ID, func(t *testing.T) { checkExperiment(t, e, cfg) })
	}
}

func TestRunnerCountsOps(t *testing.T) {
	var n [4]int
	res := Run(4, 1000, func(w int) func(int) {
		return func(int) { n[w]++ }
	})
	if res.Ops != 4000 {
		t.Fatalf("Ops = %d, want 4000", res.Ops)
	}
	for w, c := range n {
		if c != 1000 {
			t.Fatalf("worker %d did %d ops, want 1000", w, c)
		}
	}
	if res.Throughput() <= 0 || res.NsPerOp() <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
}

func TestKeyStream(t *testing.T) {
	u, err := NewKeyStream(100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewKeyStream(100, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if k := u.Next(); k >= 100 {
			t.Fatalf("uniform key %d out of range", k)
		}
		if k := z.Next(); k >= 100 {
			t.Fatalf("zipf key %d out of range", k)
		}
	}
	if _, err := NewKeyStream(10, 1.0, 1); err == nil {
		t.Fatal("theta=1 accepted")
	}
}

func TestDefaultThreadSweep(t *testing.T) {
	sweep := DefaultThreadSweep(24)
	want := []int{1, 2, 4, 8, 16, 24}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v, want %v", sweep, want)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", sweep, want)
		}
	}
	if got := DefaultThreadSweep(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("sweep(1) = %v", got)
	}
}

// TestF12PerStructureVariants: F12 must report every lock-free structure
// under the GC/EBR/HP/Recycled sweep with live gauges — the per-structure
// replacement for the old synthetic single-pointer microbench.
func TestF12PerStructureVariants(t *testing.T) {
	f12, _ := Find("F12")
	recs, err := f12.Records(Config{Quick: true, Threads: []int{1}, Ops: 1500})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, structure := range []string{"Treiber", "MS", "Harris", "SplitOrdered"} {
		for _, v := range []string{"GC", "EBR", "HP", "Recycled"} {
			want[structure+"/"+v] = false
		}
	}
	for _, v := range []string{"GC", "EBR", "HP"} {
		want["LockFree/"+v] = false
	}
	for _, r := range recs {
		if r.Family != "reclaim" {
			t.Errorf("F12 record in family %q", r.Family)
		}
		if _, ok := want[r.Algo]; !ok {
			t.Errorf("unexpected F12 algo %q", r.Algo)
			continue
		}
		want[r.Algo] = true
		if r.Gauges == nil {
			t.Errorf("F12 %s missing gauges", r.Algo)
			continue
		}
		if _, ok := r.Gauges["pending_garbage"]; !ok {
			t.Errorf("F12 %s missing pending_garbage gauge", r.Algo)
		}
		if _, ok := r.Gauges["reclaimed"]; !ok {
			t.Errorf("F12 %s missing reclaimed gauge", r.Algo)
		}
	}
	for algo, seen := range want {
		if !seen {
			t.Errorf("F12 never measured %s", algo)
		}
	}
}
