// Top-level benchmarks: one per table and figure of the paper, wrapping
// the same experiment code cmd/experiments uses for the full run. Each
// benchmark executes the experiment at a small budget per iteration and
// reports covered blocks / bugs / trap phases as custom metrics, so
// `go test -bench=. -benchmem` regenerates every result at smoke scale.
// For paper-scale numbers use `go run ./cmd/experiments`.
package pbse

import (
	"testing"

	"pbse/internal/experiments"
)

// benchConfig keeps each benchmark iteration around a second.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.BudgetB = 4_000
	cfg.SymSizes = []int{10, 100}
	return cfg
}

// BenchmarkTableI regenerates the readelf searcher comparison.
func BenchmarkTableI(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(cfg)
		if err != nil {
			b.Fatal(err)
		}
		best, pbse := 0, 0
		for _, c := range res.Baselines {
			if c.Cov10B > best {
				best = c.Cov10B
			}
		}
		for _, c := range res.PBSE {
			if c.Cov10B > pbse {
				pbse = c.Cov10B
			}
		}
		b.ReportMetric(float64(best), "klee-best-blocks")
		b.ReportMetric(float64(pbse), "pbse-blocks")
	}
}

// BenchmarkTableII regenerates the gif2tiff/pngtest/dwarfdump comparison.
func BenchmarkTableII(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		inc := 0.0
		for _, r := range rows {
			inc += r.IncreasePct
		}
		b.ReportMetric(inc/float64(len(rows)), "mean-increase-pct")
	}
}

// BenchmarkTableIII regenerates the bug table.
func BenchmarkTableIII(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bugsFound, repro := 0, 0
		for _, r := range rows {
			bugsFound += len(r.Bugs)
			repro += r.Reproduce
		}
		b.ReportMetric(float64(bugsFound), "bugs")
		b.ReportMetric(float64(repro), "witnesses-reproduce")
	}
}

// BenchmarkFig1 regenerates the concrete-vs-symbolic distribution data.
func BenchmarkFig1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		missed := 0
		for _, r := range rows {
			missed += r.Missed
		}
		b.ReportMetric(float64(missed), "concrete-only-blocks")
	}
}

// BenchmarkFig4 regenerates the phase-division comparison.
func BenchmarkFig4(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TrapsBBVOnly), "traps-bbv-only")
		b.ReportMetric(float64(r.TrapsBBVCoverage), "traps-bbv-coverage")
	}
}

// BenchmarkFig5 regenerates the tiff2rgba CIELab case study.
func BenchmarkFig5(b *testing.B) {
	cfg := benchConfig()
	cfg.BudgetB = 20_000 // the deep-phase bug needs a little room
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		found := 0.0
		if r.PBSEFoundOOB {
			found = 1
		}
		b.ReportMetric(found, "pbse-found-cielab-oob")
	}
}

// BenchmarkAblationCoverageBBV through BenchmarkAblationKSelection run the
// pbSE design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.CoverageOn-r.CoverageOff), "delta-"+metricName(r.Name))
		}
	}
}

// BenchmarkAblationSolver runs the solver fast-path ablations.
func BenchmarkAblationSolver(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SolverAblations(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Stats.SATRuns), "satruns-"+metricName(r.Name))
		}
	}
}

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '-'
		}
		out = append(out, r)
	}
	return string(out)
}
