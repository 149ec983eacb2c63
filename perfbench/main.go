// Command perfbench is the repository benchmark. It drives the engine
// and the campaign service from outside, through their Go APIs, on four
// fixed workloads; checks every result against recorded references; and
// prints each metric by name with its unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) times each stage from the harness and reports the
// per-layer metrics. A correctness-gate failure still prints the JSON
// line (correct=false) and exits 1. README.md lists the workloads, the
// metrics, and the reasons for both.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Metric units, shared by both run kinds.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitRate  = "1/s"
	unitCount = "count"
	unitMB    = "MB"
	unitPct   = "%"
	unitRatio = "ratio"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and correctness verdicts.
type report struct {
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness-gate failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// note prints an informational line (sample counts, percentiles, rates).
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload name: readelf-w1, gif2tiff-w1, readelf-w8 or pbsed-mix")
	seed := flag.Int64("seed", 1, "workload seed (probe sample, campaign draw order, arrivals, tenants)")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	scratch := flag.String("scratch", ".bench_build/scratch", "directory for the service workload's stores")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	// The engine's defaults depend on the core count (Workers: 0 picks
	// the work-stealing scheduler whenever GOMAXPROCS > 1). Every workload
	// pins its scheduler, and the process is pinned to two cores, so the
	// figures do not move with the host.
	runtime.GOMAXPROCS(2)

	window := time.Duration(*seconds) * time.Second
	rep := newReport()
	var err error
	if lw, ok := libraryWorkloads[*workload]; ok {
		if *trace == 1 {
			err = traceLibrary(lw, *seed, rep)
		} else {
			err = runLibrary(lw, window, rep)
		}
	} else if *workload == mixName {
		if *trace == 1 {
			err = traceMix(*seed, window, *scratch, rep)
		} else {
			err = runMix(*seed, window, *scratch, rep)
		}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(emit(rep))
}

// emit prints the metric table and the JSON result line, returning the
// process exit code.
func emit(r *report) int {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, e := range r.errs {
		fmt.Println("# GATE FAILED:", e)
		fmt.Fprintln(os.Stderr, "perfbench: gate failed:", e)
	}
	if r.attempted < 1 {
		r.attempted = 1
		r.failed = 1
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.errs) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(r.errs) > 0 {
		return 1
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic of xs with at least ten
// samples above it, and the percentile it sits at. With ten or fewer
// samples no such statistic exists; the maximum is returned and the
// percentile reads 100.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapSampler tracks the peak of live heap object bytes by polling
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// timeSetup runs setup n times and returns the median wall time in
// seconds (set-up is short, so one sample would be mostly noise).
func timeSetup(n int, setup func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// pct returns 100*a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
