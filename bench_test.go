package cds_test

import (
	"cmp"
	"fmt"
	"testing"

	"github.com/cds-suite/cds/bench"
)

// BenchmarkSuite exposes every cell of the cdsbench suite (package bench:
// the F/T figures, the S scenario matrix and the A ablations) as a
// testing.B sub-benchmark named ID/scenario/algo/x, so `go test -bench`
// and cmd/cdsbench measure the same code:
//
//	go test -run '^$' -bench 'Suite/F4/' .
//
// b.N is the cell's operation budget (bench.Config.Ops; most cells split
// it across their workers). The reported ns/op is the cell's own measured
// region, so construction and prefill are excluded; cells that report
// metrics (the elimination hit rate) add them under their unit. Thread
// sweeps follow the default ladder up to GOMAXPROCS (set it with -cpu).
func BenchmarkSuite(b *testing.B) {
	for _, e := range append(bench.Experiments(), bench.Ablations()...) {
		xlabel := cmp.Or(e.XLabel, "threads")
		for _, s := range e.Scenarios {
			for _, a := range s.Algos {
				for _, x := range s.Sweep(bench.Config{}) {
					name := fmt.Sprintf("%s/%s/%s/%s=%d", e.ID, s.Name, a.Label, xlabel, x)
					b.Run(name, func(b *testing.B) {
						res := a.Run(bench.Config{Ops: b.N}, x)
						if res.Err != nil {
							b.Fatal(res.Err)
						}
						b.ReportMetric(res.NsPerOp(), "ns/op")
						for _, m := range res.Metrics {
							b.ReportMetric(m.Value, m.Unit)
						}
					})
				}
			}
		}
	}
}
