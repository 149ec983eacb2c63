package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pbse"
	"pbse/internal/analysis/absint"
	"pbse/internal/expr"
	ipbse "pbse/internal/pbse"
	"pbse/internal/service"
	"pbse/internal/solver"
	"pbse/internal/store"
	"pbse/internal/supervise"
	"pbse/internal/symex"
)

// The pbsed-mix workload: an in-process campaign service with the
// pbsed defaults (pool 2, one round per slice, supervision on) fed by an
// open-loop generator. Campaigns arrive at a fixed rate regardless of
// completions; each is timed from its scheduled arrival to done, so a
// stall is charged to every campaign queued behind it.
const (
	mixName     = "pbsed-mix"
	mixTenants  = 4
	mixPoolSize = 2
	// mixRate is the arrival rate in campaigns per second. At HEAD on
	// two cores it loads the pool to about the utilisation README.md
	// records; every run prints the utilisation it saw.
	mixRate = 1.75
	// mixJitter spreads each arrival by up to this share of the mean gap
	// either side of its slot. Slots rather than exponential gaps keep
	// the queueing (and so the latency percentiles) comparable across
	// seeds; the draw order and tenants still vary with -seed.
	mixJitter = 0.4
	mixSeed   = 256 // seed input bytes per campaign
	// mixDeadline bounds one mix run, so a wedged campaign fails the run
	// instead of hanging it.
	mixDeadline = 120 * time.Second
)

// mixSpec is one vetted campaign: a (driver, RNGSeed) pair whose cost at
// its budget is bounded. Unvetted pairs can cost tens of worker-seconds
// alone (tiff2rgba RNGSeed 6 at budget 50k took 75 s), which would set
// the whole run's tail.
type mixSpec struct {
	driver  string
	rng     int64
	budget  int64
	covered int
	bugs    []string
}

func (s mixSpec) key() string { return fmt.Sprintf("%s/%d", s.driver, s.rng) }

// mixCatalog lists the vetted campaigns with their reference results:
// one uninterrupted pbse.Run each, no shared cache. RNGSeeds 6 and 11
// are left out: tiff2rgba costs 16-75 worker-s alone on them. A run draws its
// originals from the front of the catalog, so the set of campaigns
// depends only on the window length, never on -seed.
var mixCatalog = []mixSpec{
	{driver: "readelf", rng: 1, budget: 15000, covered: 189, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 1, budget: 30000, covered: 93, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 1, budget: 15000, covered: 54, bugs: nil},
	{driver: "readelf", rng: 2, budget: 15000, covered: 196, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 2, budget: 30000, covered: 94, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 2, budget: 15000, covered: 58, bugs: nil},
	{driver: "readelf", rng: 3, budget: 15000, covered: 192, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 3, budget: 30000, covered: 92, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 3, budget: 15000, covered: 58, bugs: nil},
	{driver: "readelf", rng: 4, budget: 15000, covered: 189, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 4, budget: 30000, covered: 92, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 4, budget: 15000, covered: 54, bugs: nil},
	{driver: "readelf", rng: 5, budget: 15000, covered: 180, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 5, budget: 30000, covered: 94, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 5, budget: 15000, covered: 58, bugs: nil},
	{driver: "readelf", rng: 7, budget: 15000, covered: 194, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 7, budget: 30000, covered: 94, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 7, budget: 15000, covered: 58, bugs: nil},
	{driver: "readelf", rng: 8, budget: 15000, covered: 184, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 8, budget: 30000, covered: 92, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 8, budget: 15000, covered: 58, bugs: nil},
	{driver: "readelf", rng: 9, budget: 15000, covered: 174, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 9, budget: 30000, covered: 98, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 9, budget: 15000, covered: 58, bugs: nil},
	{driver: "readelf", rng: 10, budget: 15000, covered: 195, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 10, budget: 30000, covered: 92, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 10, budget: 15000, covered: 58, bugs: nil},
	{driver: "readelf", rng: 12, budget: 15000, covered: 229, bugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"}},
	{driver: "dwarfdump", rng: 12, budget: 30000, covered: 94, bugs: []string{"b206cee98770ab0ab", "bf84b70de0f19ea7e"}},
	{driver: "tiff2rgba", rng: 12, budget: 15000, covered: 54, bugs: nil},
}

// plannedCampaign is one scheduled submission.
type plannedCampaign struct {
	spec   mixSpec
	tenant string
	at     time.Duration
	repeat bool
}

// planMix draws the run's arrival schedule: about rate x window
// campaigns, half of them originals from the catalog and half repeats of
// an earlier original under another tenant.
func planMix(seed int64, window time.Duration) ([]plannedCampaign, error) {
	originals := int(math.Round(mixRate * window.Seconds() / 2))
	if originals < 1 {
		originals = 1
	}
	if originals > len(mixCatalog) {
		return nil, fmt.Errorf("%s: a %v window needs %d catalog campaigns, have %d", mixName, window, originals, len(mixCatalog))
	}
	rng := rand.New(rand.NewSource(seed))
	var plan []plannedCampaign
	var pending []plannedCampaign
	for _, i := range rng.Perm(originals) {
		// Emit waiting repeats at random before each new original.
		for len(pending) > 0 && rng.Intn(2) == 0 {
			plan = append(plan, pending[0])
			pending = pending[1:]
		}
		t := rng.Intn(mixTenants)
		orig := plannedCampaign{spec: mixCatalog[i], tenant: fmt.Sprintf("t%d", t)}
		plan = append(plan, orig)
		rep := orig
		rep.repeat = true
		rep.tenant = fmt.Sprintf("t%d", (t+1+rng.Intn(mixTenants-1))%mixTenants)
		pending = append(pending, rep)
	}
	plan = append(plan, pending...)
	gap := window.Seconds() / float64(len(plan))
	for i := range plan {
		at := (float64(i) + 0.5 + mixJitter*(2*rng.Float64()-1)) * gap
		plan[i].at = time.Duration(at * float64(time.Second))
	}
	sort.SliceStable(plan, func(a, b int) bool { return plan[a].at < plan[b].at })
	return plan, nil
}

func (p plannedCampaign) serviceSpec() service.Spec {
	return service.Spec{
		Tenant: p.tenant, Driver: p.spec.driver, SeedSize: mixSeed, RNGSeed: p.spec.rng,
		Budget: p.spec.budget, Workers: 1, Deterministic: false,
	}
}

func mixConfig() service.Config {
	return service.Config{
		Pool:           mixPoolSize,
		RoundsPerSlice: 1,
		Supervise:      &supervise.Options{Enabled: true, IslandDeadline: 30 * time.Second},
		Logf:           func(string, ...any) {},
	}
}

// campaignRun is one campaign's outcome in a mix run.
type campaignRun struct {
	plan    plannedCampaign
	id      string
	lag     time.Duration
	latency time.Duration
	info    *service.CampaignInfo
	err     error
	events  []stampedEvent // traced runs only
}

type stampedEvent struct {
	at time.Time
	ev service.Event
}

// mixRun is one executed mix.
type mixRun struct {
	camps    []*campaignRun
	elapsed  time.Duration
	peakHeap float64
	maxQueue int
	svc      *service.Service
	root     string
}

// openMix opens a service over a fresh root under scratch.
func openMix(scratch, name string) (*service.Service, string, error) {
	root := filepath.Join(scratch, name)
	if err := os.RemoveAll(root); err != nil {
		return nil, "", err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, "", err
	}
	svc, err := service.Open(root, mixConfig())
	if err != nil {
		return nil, "", fmt.Errorf("service open: %w", err)
	}
	return svc, root, nil
}

// mixSetup is the timed set-up: the target programs (the harness keeps
// them to replay witnesses; campaigns build their own inside slices) and
// service.Open, with its shared-cache preload, over a fresh root. The
// last repetition's service is the one the run uses.
func mixSetup(scratch string, plan []plannedCampaign) (*service.Service, string, map[string]*pbse.Program, float64, error) {
	var svc *service.Service
	var root string
	var progs map[string]*pbse.Program
	setupS, err := timeSetup(setupReps, func() error {
		if svc != nil {
			if err := svc.Close(context.Background()); err != nil {
				return err
			}
		}
		progs = map[string]*pbse.Program{}
		for _, p := range plan {
			if progs[p.spec.driver] != nil {
				continue
			}
			tgt, err := pbse.TargetByDriver(p.spec.driver)
			if err != nil {
				return err
			}
			if progs[p.spec.driver], err = tgt.Build(); err != nil {
				return err
			}
		}
		var err error
		svc, root, err = openMix(scratch, "run")
		return err
	})
	return svc, root, progs, setupS, err
}

// execMix runs the planned open loop against svc and waits for every
// campaign to end. With traced set, every campaign's event stream is
// time-stamped and the queue depth is sampled.
func execMix(svc *service.Service, root string, plan []plannedCampaign, traced bool) (*mixRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), mixDeadline)
	defer cancel()
	run := &mixRun{svc: svc, root: root}
	heap := startHeapSampler()

	var qwg sync.WaitGroup
	qstop := make(chan struct{})
	if traced {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			t := time.NewTicker(20 * time.Millisecond)
			defer t.Stop()
			for {
				if q := svc.Stats().Queued; q > run.maxQueue {
					run.maxQueue = q
				}
				select {
				case <-qstop:
					return
				case <-t.C:
				}
			}
		}()
	}

	var wg sync.WaitGroup
	t0 := time.Now()
	for _, p := range plan {
		c := &campaignRun{plan: p}
		run.camps = append(run.camps, c)
		due := t0.Add(p.at)
		time.Sleep(time.Until(due))
		c.lag = time.Since(due)
		submitted := time.Now()
		info, err := svc.Submit(p.serviceSpec())
		if err != nil {
			c.err = err
			continue
		}
		c.id = info.ID
		var sub *service.Sub
		if traced {
			s, replay, err := svc.Hub().Subscribe(c.id, 0)
			if err != nil {
				c.err = err
				continue
			}
			sub = s
			c.events = append(c.events, stampedEvent{submitted, service.Event{Type: "status", Status: service.StatusQueued}})
			now := time.Now()
			for _, ev := range replay {
				c.events = append(c.events, stampedEvent{now, ev})
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sub != nil {
				stampEvents(ctx, sub, c)
				sub.Close()
			}
			_, err := svc.WaitTerminal(ctx, c.id)
			c.latency = time.Since(due)
			if err != nil {
				c.err = err
				return
			}
			c.info, c.err = svc.Info(c.id)
		}()
	}
	wg.Wait()
	run.elapsed = time.Since(t0)
	close(qstop)
	qwg.Wait()
	run.peakHeap = heap.Stop()
	return run, ctx.Err()
}

// stampEvents drains sub until the campaign's final event, stamping
// each event with its arrival time. The final event is published before
// WaitTerminal wakes, so the caller waits on the campaign afterwards.
func stampEvents(ctx context.Context, sub *service.Sub, c *campaignRun) {
	if n := len(c.events); n > 0 && c.events[n-1].ev.Final {
		return
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-sub.C:
		}
		evs, closed := sub.Drain()
		now := time.Now()
		for _, ev := range evs {
			c.events = append(c.events, stampedEvent{now, ev})
		}
		if closed || (len(evs) > 0 && evs[len(evs)-1].Final) {
			return
		}
	}
}

// mixCoverageSlack is the share by which a campaign's coverage may miss
// its reference. The shared verdict cache is not result-neutral at HEAD:
// a campaign that reads verdicts other campaigns wrote can land a few
// blocks off its cold result (readelf RNGSeed 7 at 25k: 197 cold, 196
// after other readelf campaigns filled the cache). The gate tolerates
// that and the run counts it (repeatMismatches) instead.
const mixCoverageSlack = 0.02

// gateMix checks every campaign: done, bug IDs equal to the reference,
// coverage within mixCoverageSlack of it, and every stored bug witness
// replaying concretely.
func gateMix(r *report, run *mixRun, progs map[string]*pbse.Program) {
	for _, c := range run.camps {
		r.attempted++
		n := len(r.errs)
		switch {
		case c.err != nil:
			r.check(false, "campaign %s (%s): %v", c.id, c.plan.spec.key(), c.err)
		case c.info.Status != service.StatusDone:
			r.check(false, "campaign %s (%s) ended %s: %s", c.id, c.plan.spec.key(), c.info.Status, c.info.Error)
		default:
			ids := append([]string(nil), c.info.BugIDs...)
			sort.Strings(ids)
			slack := math.Abs(float64(c.info.Covered-c.plan.spec.covered)) <= mixCoverageSlack*float64(c.plan.spec.covered)
			r.check(slack && strings.Join(ids, ",") == strings.Join(c.plan.spec.bugs, ","),
				"campaign %s (%s, tenant %s, repeat %v): covered %d bugs %v, reference %d %v",
				c.id, c.plan.spec.key(), c.plan.tenant, c.plan.repeat, c.info.Covered, ids, c.plan.spec.covered, c.plan.spec.bugs)
			replayCorpus(r, run.svc.Root(), c, progs[c.plan.spec.driver])
		}
		if len(r.errs) > n {
			r.failed++
		}
	}
}

func replayCorpus(r *report, root *store.Root, c *campaignRun, prog *pbse.Program) {
	st, err := store.Open(root.CampaignDir(c.id))
	if err != nil {
		r.check(false, "campaign %s: %v", c.id, err)
		return
	}
	entries, err := st.Corpus()
	if err != nil {
		r.check(false, "campaign %s: %v", c.id, err)
		return
	}
	r.check(len(entries) == len(c.info.BugIDs), "campaign %s: %d bugs but %d stored witnesses", c.id, len(c.info.BugIDs), len(entries))
	for _, e := range entries {
		_, input, err := st.ReadReproducer(e.ID)
		if err != nil {
			r.check(false, "campaign %s: %v", c.id, err)
			continue
		}
		ok, msg, err := store.Replay(prog, e, input, 0)
		r.check(err == nil && ok, "campaign %s: witness of bug %s does not replay: %s %v", c.id, e.ID, msg, err)
	}
}

// repeatMismatches counts campaigns whose coverage differs from the
// first campaign of the same (driver, RNGSeed) in the run.
func (m *mixRun) repeatMismatches() int {
	first := map[string]int{}
	n := 0
	for _, c := range m.camps {
		if c.info == nil {
			continue
		}
		k := c.plan.spec.key()
		if cov, ok := first[k]; !ok {
			first[k] = c.info.Covered
		} else if cov != c.info.Covered {
			n++
		}
	}
	return n
}

// totals sums the campaigns' service-reported work.
func (m *mixRun) totals() (busy float64, slices int64, covered int) {
	for _, c := range m.camps {
		if c.info != nil {
			busy += c.info.WallSeconds
			slices += c.info.Slices
			covered += c.info.Covered
		}
	}
	return
}

func (m *mixRun) latencies() []float64 {
	var xs []float64
	for _, c := range m.camps {
		if c.err == nil && c.info != nil {
			xs = append(xs, c.latency.Seconds())
		}
	}
	return xs
}

func (m *mixRun) maxLag() time.Duration {
	var lag time.Duration
	for _, c := range m.camps {
		if c.lag > lag {
			lag = c.lag
		}
	}
	return lag
}

func (m *mixRun) close() error {
	err := m.svc.Close(context.Background())
	if rmErr := os.RemoveAll(m.root); err == nil {
		err = rmErr
	}
	return err
}

// runMix is the untraced run: one open-loop mix over the window.
func runMix(seed int64, window time.Duration, scratch string, r *report) error {
	plan, err := planMix(seed, window)
	if err != nil {
		return err
	}
	svc, root, progs, setupS, err := mixSetup(scratch, plan)
	if err != nil {
		return err
	}
	run, err := execMix(svc, root, plan, false)
	if err != nil {
		r.check(false, "%s: %v", mixName, err)
	}
	gateMix(r, run, progs)
	if err := run.close(); err != nil {
		return err
	}
	busy, slices, covered := run.totals()
	lat := run.latencies()
	tailV, tailP := tail(lat)
	note("%s: %d campaigns over %d tenants, open loop at %.2f/s for %v; pool %d busy %.1f worker-s of %.1f s (utilisation %.0f%% of the arrival window, %.0f%% of the run)",
		mixName, len(plan), mixTenants, mixRate, window, mixPoolSize, busy, run.elapsed.Seconds(),
		pct(busy, mixPoolSize*window.Seconds()), pct(busy, mixPoolSize*run.elapsed.Seconds()))
	note("%s: latency tail is p%.0f of N=%d; generator lag max %.1f ms; %d repeats off their original's coverage",
		mixName, tailP, len(lat), ms(run.maxLag()), run.repeatMismatches())
	r.set("setup_s", unitS, setupS)
	if busy > 0 {
		r.set("blocks_per_s", unitRate, float64(covered)/busy)
		r.set("slices_per_s", unitRate, float64(slices)/busy)
	}
	r.set("covered_blocks", unitCount, float64(covered))
	r.set("peak_heap_mb", unitMB, run.peakHeap)
	r.set("campaign_latency_p50_s", unitS, median(lat))
	r.set("campaign_latency_tail_s", unitS, tailV)
	return nil
}

// traceMix is the traced run: the untraced mix for reference, the same
// mix again with time-stamped event streams and queue sampling, then the
// durability probe over each distinct campaign.
func traceMix(seed int64, window time.Duration, scratch string, r *report) error {
	plan, err := planMix(seed, window)
	if err != nil {
		return err
	}
	svc, root, progs, _, err := mixSetup(scratch, plan)
	if err != nil {
		return err
	}
	ref, err := execMix(svc, root, plan, false)
	if err != nil {
		r.check(false, "%s: untraced: %v", mixName, err)
	}
	gateMix(r, ref, progs)
	if err := ref.close(); err != nil {
		return err
	}

	svc, root, err = openMix(scratch, "traced")
	if err != nil {
		return err
	}
	run, err := execMix(svc, root, plan, true)
	if err != nil {
		r.check(false, "%s: traced: %v", mixName, err)
	}
	gateMix(r, run, progs)
	for i, c := range run.camps {
		if a, b := c.info, ref.camps[i].info; a != nil && b != nil {
			r.check(strings.Join(a.BugIDs, ",") == strings.Join(b.BugIDs, ","),
				"campaign %s: traced run found bugs %v, untraced %v", c.id, a.BugIDs, b.BugIDs)
		}
	}
	r.set("service.repeat_mismatches", unitCount, float64(run.repeatMismatches()))
	traceCheckpoints(r, run)
	traceService(r, run, progs)
	if err := run.close(); err != nil {
		return err
	}
	if err := durabilityProbe(r, plan, scratch); err != nil {
		return err
	}

	refBusy, _, _ := ref.totals()
	busy, _, _ := run.totals()
	lat := run.latencies()
	_, tailP := tail(lat)
	bugs := map[string]bool{}
	for _, c := range run.camps {
		if c.info != nil {
			for _, id := range c.info.BugIDs {
				bugs[id] = true
			}
		}
	}
	r.set("result.bugs_found", unitCount, float64(len(bugs)))
	r.set("campaign_latency.samples", unitCount, float64(len(lat)))
	r.set("campaign_latency.tail_percentile", unitPct, tailP)
	r.set("loadgen.lag_ms_max", unitMS, ms(run.maxLag()))
	r.set("result.failed_frac", unitRatio, float64(r.failed)/float64(r.attempted))
	r.set("trace.overhead_pct", unitPct, pct(busy-refBusy, refBusy))
	fillLayers(r)
	return nil
}

// traceService derives the per-slice service metrics from the stamped
// event streams: queue wait (queued or checkpointed to running) and
// slice time (running to the slice's progress event).
func traceService(r *report, run *mixRun, progs map[string]*pbse.Program) {
	var waits, slices []float64
	perDriver := map[string]int{}
	for _, c := range run.camps {
		var readyAt, runAt time.Time
		for _, se := range c.events {
			switch {
			case se.ev.Type == "status" && (se.ev.Status == service.StatusQueued || se.ev.Status == service.StatusCheckpointed):
				readyAt = se.at
			case se.ev.Type == "status" && se.ev.Status == service.StatusRunning:
				runAt = se.at
				if !readyAt.IsZero() {
					waits = append(waits, runAt.Sub(readyAt).Seconds())
				}
			case se.ev.Type == "progress" && !runAt.IsZero():
				slices = append(slices, se.at.Sub(runAt).Seconds())
				perDriver[c.plan.spec.driver]++
				runAt = time.Time{}
			}
		}
	}
	// Every slice resumes through pbse.Run, which rebuilds the static
	// report; charge each slice its driver's report time.
	var reportMS float64
	var n int
	for driver, k := range perDriver {
		var xs []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			absint.BuildReport(progs[driver])
			xs = append(xs, ms(time.Since(start)))
		}
		reportMS += median(xs) * float64(k)
		n += k
	}
	if n > 0 {
		r.set("analysis.report_ms", unitMS, reportMS/float64(n))
	}
	r.set("service.queue_wait_s_p50", unitS, median(waits))
	r.set("service.slice_s_p50", unitS, median(slices))
	_, nslices, _ := run.totals()
	r.set("service.slices", unitCount, float64(nslices))
	r.set("service.queue_depth_max", unitCount, float64(run.maxQueue))
	shared := run.svc.Root().SharedStats()
	r.set("store.verdicts_flushed", unitCount, float64(shared.VerdictsFlushed))
	r.set("store.shared_cache_bytes", unitBytes, float64(shared.CacheBytes))
}

// traceCheckpoints sums the engine counters the campaigns' final
// checkpoints carry: the work the service actually did, shared-cache
// hits included.
func traceCheckpoints(r *report, run *mixRun) {
	var steps, turns, seedStates, conSteps, phases, traps int64
	var divide time.Duration
	var faults int64
	var solv solver.Stats
	var gov symex.GovStats
	for _, c := range run.camps {
		if c.id == "" {
			continue
		}
		st, err := store.Open(run.svc.Root().CampaignDir(c.id))
		if err != nil {
			r.check(false, "campaign %s: %v", c.id, err)
			continue
		}
		cf, err := st.ReadCheckpoint()
		if err != nil {
			r.check(false, "campaign %s: %v", c.id, err)
			continue
		}
		ck := cf.Common()
		for _, p := range ck.PhaseStats {
			steps += p.Steps
			turns += p.Turns
			seedStates += int64(p.SeedStates)
		}
		conSteps += ck.ConSteps
		if ck.Division != nil {
			phases += int64(len(ck.Division.Phases))
			traps += int64(ck.Division.NumTrap)
		}
		divide += time.Duration(ck.PTimeNanos)
		solv.Accum(ck.CarrySolver)
		gov.Merge(ck.CarryGov)
		faults += ck.CarrySup.Crashes + ck.CarrySup.Hangs + ck.CarrySup.StoreFaults + ck.CarrySup.QuarantinedIslands
	}
	r.check(faults == 0, "%s: supervision contained %d faults in a fault-free mix", mixName, faults)
	r.set("concolic.steps", unitCount, float64(conSteps))
	r.set("concolic.seed_states", unitCount, float64(seedStates))
	r.set("phase.divide_ms", unitMS, ms(divide))
	r.set("phase.phases", unitCount, float64(phases))
	r.set("phase.trap_phases", unitCount, float64(traps))
	r.set("pbse.steps", unitCount, float64(steps))
	r.set("pbse.turns", unitCount, float64(turns))
	setGov(r, gov)
	setSolver(r, solv)
	r.set("supervise.faults", unitCount, float64(faults))
}

// durabilityProbe prices durability for each distinct campaign of the
// plan: the campaign stepped one round at a time through a Handle over
// a scratch store, against one uninterrupted pbse.Run of the same
// options; and the checkpoint codec on every checkpoint the stepping
// leaves, re-written into a second scratch store.
func durabilityProbe(r *report, plan []plannedCampaign, scratch string) error {
	seen := map[string]bool{}
	var stepMS, readMS, decodeMS, encodeMS, writeMS, sizes []float64
	var handleTotal, runTotal time.Duration
	for _, p := range plan {
		if seen[p.spec.key()] {
			continue
		}
		seen[p.spec.key()] = true
		tgt, err := pbse.TargetByDriver(p.spec.driver)
		if err != nil {
			return err
		}
		prog, err := tgt.Build()
		if err != nil {
			return err
		}
		seed := tgt.GenSeed(rand.New(rand.NewSource(p.spec.rng)), mixSeed)
		dir := filepath.Join(scratch, "probe")
		copyDir := filepath.Join(scratch, "probe-copy")
		for _, d := range []string{dir, copyDir} {
			if err := os.RemoveAll(d); err != nil {
				return err
			}
		}
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		dst, err := store.Open(copyDir)
		if err != nil {
			return err
		}
		opts := ipbse.Options{
			Budget: p.spec.budget, Seed: p.spec.rng, Workers: 1, Deterministic: false,
			Store: st, StoreLabel: p.spec.driver,
			Supervise: &supervise.Options{Enabled: true, Seed: p.spec.rng, IslandDeadline: 30 * time.Second},
		}
		exOpts := pbse.ExecutorOptions{InputSize: len(seed)}
		h, err := ipbse.NewHandle(prog, seed, opts, exOpts)
		if err != nil {
			return err
		}
		var res *ipbse.Result
		for !h.Done() {
			start := time.Now()
			res, err = h.Step(1)
			d := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s: handle step: %w", p.spec.key(), err)
			}
			handleTotal += d
			stepMS = append(stepMS, ms(d))
			rd, dec, enc, wr, size, err := timeCodec(st, dst, len(seed))
			if err != nil {
				return fmt.Errorf("%s: checkpoint codec: %w", p.spec.key(), err)
			}
			readMS = append(readMS, rd)
			decodeMS = append(decodeMS, dec)
			encodeMS = append(encodeMS, enc)
			writeMS = append(writeMS, wr)
			sizes = append(sizes, size)
		}
		ropts := opts
		ropts.Store, ropts.StoreLabel = nil, ""
		start := time.Now()
		whole, err := ipbse.Run(prog, seed, ropts, exOpts)
		runTotal += time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: uninterrupted run: %w", p.spec.key(), err)
		}
		r.check(res.Covered == whole.Covered && strings.Join(bugIDs(res.Bugs), ",") == strings.Join(bugIDs(whole.Bugs), ","),
			"%s: stepped handle (%d blocks) differs from the uninterrupted run (%d)", p.spec.key(), res.Covered, whole.Covered)
		for _, d := range []string{dir, copyDir} {
			if err := os.RemoveAll(d); err != nil {
				return err
			}
		}
	}
	stepTail, _ := tail(stepMS)
	r.set("handle.step_ms_p50", unitMS, median(stepMS))
	r.set("handle.step_ms_tail", unitMS, stepTail)
	r.set("handle.steps", unitCount, float64(len(stepMS)))
	r.set("handle.resume_overhead_pct", unitPct, pct(float64(handleTotal-runTotal), float64(runTotal)))
	r.set("store.checkpoint_read_ms", unitMS, median(readMS))
	r.set("store.checkpoint_decode_ms", unitMS, median(decodeMS))
	r.set("store.checkpoint_encode_ms", unitMS, median(encodeMS))
	r.set("store.checkpoint_write_ms", unitMS, median(writeMS))
	r.set("store.checkpoint_bytes", unitBytes, median(sizes))
	r.set("store.checkpoints", unitCount, float64(len(sizes)))
	note("%s: durability probe over %d distinct campaigns: %d handle steps %.2fs vs uninterrupted runs %.2fs",
		mixName, len(seen), len(stepMS), handleTotal.Seconds(), runTotal.Seconds())
	return nil
}

// timeCodec times one checkpoint through the codec: read (file read,
// gunzip, common-part parse), decode of every state section, encode, and
// WriteCheckpoint (which encodes again, compresses and syncs) into dst.
func timeCodec(src, dst *store.Store, inputSize int) (readMS, decodeMS, encodeMS, writeMS, size float64, err error) {
	start := time.Now()
	cf, err := src.ReadCheckpoint()
	readMS = ms(time.Since(start))
	if err != nil {
		return
	}
	ctx := expr.NewContext()
	input := expr.NewArray("input", inputSize)
	resolve := func(name string, size int) (*expr.Array, error) {
		if name == input.Name && size == input.Size {
			return input, nil
		}
		return nil, fmt.Errorf("unknown array %q size %d", name, size)
	}
	ck := *cf.Common()
	ck.Sections = nil
	start = time.Now()
	for i := 0; i < cf.NumSections(); i++ {
		lists, derr := cf.DecodeSection(i, ctx, resolve)
		if derr != nil {
			err = derr
			return
		}
		ck.Sections = append(ck.Sections, store.StateSection{Lists: lists})
	}
	decodeMS = ms(time.Since(start))
	start = time.Now()
	if _, err = store.EncodeCheckpoint(&ck); err != nil {
		return
	}
	encodeMS = ms(time.Since(start))
	start = time.Now()
	if err = dst.WriteCheckpoint(&ck); err != nil {
		return
	}
	writeMS = ms(time.Since(start))
	size = float64(dst.Stats().CheckpointBytes)
	return
}
