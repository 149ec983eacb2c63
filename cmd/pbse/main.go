// Command pbse runs phase-based symbolic execution end-to-end on one of
// the bundled targets and prints a report: phases found, coverage, bugs
// with witness inputs and stable IDs, and the paper-style c-time/p-time
// accounting.
//
// Usage:
//
//	pbse -driver readelf -seedsize 576 -budget 2000000
//
// With -store DIR the campaign is persisted: a checkpoint at every
// scheduler round barrier, a cross-run solver verdict cache, and a
// bug-reproducer corpus. -resume continues a killed or interrupted
// campaign from its checkpoint; -max-rounds N stops (checkpointed) after
// N rounds; -replay BUG_ID re-executes a stored reproducer concretely
// and checks it still faults at the recorded site.
//
// -supervise runs the campaign under the fault-isolation supervisor
// (DESIGN.md §11): island turns are contained by recover boundaries and
// the -island-deadline watchdog, faulting islands retry with degraded
// budgets up to -max-island-restarts, and — when -store is also set —
// the process itself runs under a re-exec loop that restarts it from
// the last checkpoint after a hard crash (SIGKILL, OOM kill, panic of
// the runtime itself).
//
// Exit status: 0 when the run completes without finding bugs (or a
// replay reproduces its bug), 2 when bugs are found (or a replay fails
// to reproduce), 1 on errors.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pbse/internal/faultinject"
	"pbse/internal/pbse"
	"pbse/internal/solver"
	"pbse/internal/store"
	"pbse/internal/supervise"
	"pbse/internal/symex"
	"pbse/internal/targets"
)

// Environment markers of the -supervise re-exec loop: the parent sets
// both for its child, so a supervised child never becomes a parent
// itself and can report how many times the campaign was restarted.
const (
	envSupervisedChild = "PBSE_SUPERVISED_CHILD"
	envRestarts        = "PBSE_RESTARTS"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbse:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		driver   = flag.String("driver", "readelf", "target test driver (readelf, pngtest, gif2tiff, tiff2rgba, dwarfdump)")
		seedSize = flag.Int("seedsize", 576, "generated seed size in bytes")
		budget   = flag.Int64("budget", 2_000_000, "virtual-time budget (instructions)")
		rngSeed  = flag.Int64("rng", 42, "random seed (determinism)")
		buggy    = flag.Bool("buggy-seed", false, "use the bug-triggering seed generator")
		workers  = flag.Int("workers", 1, "scheduler worker count: 1 (or 0) = single-threaded round-robin scheduler, > 1 = work-stealing scheduler")
		determ   = flag.Bool("deterministic", false, "use the round-barrier island scheduler: bit-identical results for any worker count, at the cost of fast-mode throughput")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit (sampling rate 5)")

		maxConflicts  = flag.Int64("max-conflicts", 0, "solver conflict budget per query (0 = default)")
		queryDeadline = flag.Duration("query-deadline", 0, "solver wall-clock deadline per query (0 = none)")
		maxStates     = flag.Int("max-states", 0, "cap on live states; further forks suppressed (0 = unlimited)")
		maxStateBytes = flag.Int64("max-state-bytes", 0, "soft cap on estimated live-state memory; evicts costliest states (0 = unlimited)")
		injectSpec    = flag.String("inject", "", "fault-injection spec, e.g. solver-unknown=0.1,solver-slow=0.05:1ms,step-panic=0.01,alloc-pressure=0.2:1048576")
		noAbsint      = flag.Bool("no-absint", false, "disable the abstract-interpretation pass (static branch pruning and phase annotation)")

		storeDir  = flag.String("store", "", "persistent run store directory (checkpoints, solver cache, reproducer corpus)")
		resume    = flag.Bool("resume", false, "resume the campaign from the store's checkpoint (requires -store)")
		maxRounds = flag.Int64("max-rounds", 0, "stop after N scheduler rounds with a checkpoint saved (requires -store; 0 = run to budget)")
		replayID  = flag.String("replay", "", "replay a stored bug reproducer by ID and exit (requires -store)")

		supervised        = flag.Bool("supervise", false, "run under the fault-isolation supervisor (with -store: also the crash-recovery re-exec loop)")
		islandDeadline    = flag.Duration("island-deadline", 30*time.Second, "supervised: wall-clock watchdog per island turn (negative = no watchdog)")
		maxIslandRestarts = flag.Int("max-island-restarts", 3, "supervised: consecutive faults before an island is quarantined")
		maxRestarts       = flag.Int("max-restarts", 64, "supervised: process restarts before the re-exec loop gives up")
	)
	flag.Parse()

	if *storeDir == "" && (*resume || *maxRounds > 0 || *replayID != "") {
		return 1, fmt.Errorf("-resume, -max-rounds and -replay require -store")
	}

	// The crash-recovery loop: re-exec this binary as a supervised child
	// and restart it from the store's checkpoint whenever it dies on a
	// signal. Only the parent of a persisted supervised campaign loops;
	// everything below this block is the child (or an unsupervised run).
	if *supervised && *storeDir != "" && *replayID == "" && os.Getenv(envSupervisedChild) == "" {
		return superviseLoop(*storeDir, *maxRestarts)
	}

	// Profiling starts only here — below the re-exec dispatch — so a
	// supervised parent and its child never race on the same profile
	// file; the campaign-running process is the one profiled.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *mutexProfile)
	if err != nil {
		return 1, err
	}
	defer stopProfiles()

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			return 1, err
		}
	}

	if *replayID != "" {
		return replay(st, *driver, *replayID)
	}

	tgt, err := targets.ByDriver(*driver)
	if err != nil {
		return 1, err
	}
	prog, err := tgt.Build()
	if err != nil {
		return 1, err
	}
	rng := rand.New(rand.NewSource(*rngSeed))
	var seed []byte
	if *buggy {
		if tgt.GenBuggySeed == nil {
			return 1, fmt.Errorf("target %s has no buggy seed generator", *driver)
		}
		seed = tgt.GenBuggySeed(rng)
	} else {
		seed = tgt.GenSeed(rng, *seedSize)
	}

	exOpts := symex.Options{
		InputSize: len(seed),
		SolverOpts: solver.Options{
			MaxConflicts:  *maxConflicts,
			QueryDeadline: *queryDeadline,
		},
		MaxStates:     *maxStates,
		MaxStateBytes: *maxStateBytes,
	}
	if *injectSpec != "" {
		inj, err := faultinject.ParseSpec(*injectSpec, *rngSeed)
		if err != nil {
			return 1, err
		}
		exOpts.FaultInjector = inj
	}

	popts := pbse.Options{
		Budget: *budget, Seed: *rngSeed, Workers: *workers,
		Deterministic: *determ,
		DisableAbsint: *noAbsint,
		Store:         st, Resume: *resume, MaxRounds: *maxRounds, StoreLabel: *driver,
	}
	if *supervised {
		popts.Supervise = &supervise.Options{
			Enabled:           true,
			IslandDeadline:    *islandDeadline,
			MaxIslandRestarts: *maxIslandRestarts,
			Seed:              *rngSeed,
		}
	}

	fmt.Printf("pbSE on %s (%s), seed %d bytes, budget %d\n", tgt.Name, tgt.Paper, len(seed), *budget)
	res, err := pbse.Run(prog, seed, popts, exOpts)
	if err != nil {
		return 1, err
	}

	if res.Resumed {
		fmt.Printf("resumed from checkpoint: clock %d, %d phases restored\n",
			res.CTime, len(res.PhaseStats))
	}
	fmt.Printf("\nconcolic execution: %d instructions (c-time), %d BBVs, %d seedStates\n",
		res.CTime, len(res.Concolic.BBVs), len(res.Concolic.SeedStates))
	fmt.Printf("phase analysis:     %v (p-time), k=%d, %d phases (%d trap)\n",
		res.PTime, res.Division.K, len(res.Division.Phases), res.Division.NumTrap)
	for _, ps := range res.PhaseStats {
		mark := " "
		if ps.Trap {
			mark = "T"
		}
		fmt.Printf("  phase %2d %s  seedStates=%-4d steps=%-8d newBlocks=%-5d bugs=%d\n",
			ps.ID, mark, ps.SeedStates, ps.Steps, ps.NewBlocks, ps.Bugs)
	}
	fmt.Printf("\ncoverage: %d / %d basic blocks\n", res.Covered, len(prog.AllBlocks))
	fmt.Printf("bugs: %d\n", len(res.Bugs))
	for _, b := range res.Bugs {
		fmt.Printf("  %s [phase %d] %s\n", b.ID(), b.Phase, b)
		if b.Input != nil {
			fmt.Printf("    witness (first 32 bytes): % x\n", head(b.Input, 32))
		}
	}
	sst := res.SolverStats
	fmt.Printf("\nsolver: %d queries, %d static prunes, %d cache hits, %d candidate hits, %d interval hits, %d SAT runs\n",
		sst.Queries, sst.StaticPrunes, sst.CacheHits, sst.CandidateSat, sst.IntervalFast, sst.SATRuns)
	fmt.Printf("solver unknowns: %d (budget %d, deadline %d, injected %d, internal %d)\n",
		sst.Unknowns, sst.BudgetExhausted, sst.DeadlineExceeded, sst.InjectedUnknowns, sst.InternalRecovered)
	if res.Workers > 1 {
		sc := res.SharedCache
		fmt.Printf("workers: %d (shared cache: %d hits, %d misses, %d stores, %d entries)\n",
			res.Workers, sc.Hits, sc.Misses, sc.Stores, sc.Entries)
		for _, w := range res.WorkerStats {
			fmt.Printf("  worker %d: %d turns, %d steps\n", w.Worker, w.Turns, w.Steps)
		}
	}
	g := res.Gov
	fmt.Printf("governance: %d unknowns, %d retries, %d concretizations, %d quarantines, %d evictions\n",
		g.SolverUnknowns, g.SolverRetries, g.Concretizations, g.Quarantines, g.Evictions)
	if res.Supervised {
		// The re-exec parent is the authority on process restarts; the
		// checkpoint never carries them.
		if n, err := strconv.Atoi(os.Getenv(envRestarts)); err == nil {
			res.Sup.ProcessRestarts = int64(n)
		}
		sup := res.Sup
		fmt.Printf("supervision: %d crashes, %d hangs, %d watchdog trips, %d restarts, %d backoff skips, %d degraded rounds\n",
			sup.Crashes, sup.Hangs, sup.WatchdogTrips, sup.Restarts, sup.BackoffSkips, sup.DegradedRounds)
		fmt.Printf("supervision: %d requeued states, %d quarantined islands (%d states), %d fault checkpoints, %d store faults, %d process restarts\n",
			sup.RequeuedStates, sup.QuarantinedIslands, sup.QuarantinedStates, sup.FaultCheckpoints, sup.StoreFaults, sup.ProcessRestarts)
	}
	for _, q := range res.Executor.QuarantineRecords() {
		fmt.Printf("  quarantined state %d at %s/%s: %s\n", q.StateID, q.Func, q.Block, q.Panic)
	}
	if st != nil {
		ss := res.Store
		fmt.Printf("store: %d checkpoints (%d bytes last), %d verdicts loaded, %d flushed, %d reproducers added\n",
			ss.Checkpoints, ss.CheckpointBytes, ss.VerdictsLoaded, ss.VerdictsFlushed, ss.CorpusAdded)
	}
	if res.Interrupted {
		fmt.Printf("interrupted after %d round(s); resume with -store %s -resume\n", *maxRounds, *storeDir)
	}
	if len(res.Bugs) > 0 {
		return 2, nil
	}
	return 0, nil
}

// startProfiles arms the requested pprof outputs and returns the stop
// function that flushes them. CPU profiling runs for the whole campaign;
// the heap and mutex profiles are snapshots taken at exit (the mutex
// profile is what quantifies steal-channel and shard-lock contention in
// the work-stealing scheduler).
func startProfiles(cpu, mem, mutex string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(5)
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			if f, err := os.Create(mem); err == nil {
				runtime.GC() // settle the heap so the snapshot reflects live data
				_ = pprof.Lookup("heap").WriteTo(f, 0)
				f.Close()
			} else {
				fmt.Fprintln(os.Stderr, "pbse: memprofile:", err)
			}
		}
		if mutex != "" {
			if f, err := os.Create(mutex); err == nil {
				_ = pprof.Lookup("mutex").WriteTo(f, 0)
				f.Close()
			} else {
				fmt.Fprintln(os.Stderr, "pbse: mutexprofile:", err)
			}
		}
	}, nil
}

// superviseLoop is the self-healing re-exec supervisor: it runs this
// binary again as a supervised child and, whenever the child dies on a
// signal (kill -9, OOM kill — anything that never returns an exit code),
// restarts it from the store's latest checkpoint by appending -resume.
// A child that exits normally — success, bugs found, or a regular error
// — ends the loop with that exit code. Restarting from the checkpoint
// loses at most one round of work per crash, so a crashing-but-resumable
// campaign still drains its whole budget.
func superviseLoop(storeDir string, maxRestarts int) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return 1, err
	}
	// The child decides fresh-vs-resume per attempt from the store, so
	// any -resume the user passed is stripped and re-added only when a
	// checkpoint actually exists (a first attempt has none).
	base := stripResume(os.Args[1:])
	for restarts := 0; ; restarts++ {
		args := base
		if st.HasCheckpoint() {
			args = append(append([]string(nil), base...), "-resume")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
		cmd.Env = append(os.Environ(),
			envSupervisedChild+"=1",
			fmt.Sprintf("%s=%d", envRestarts, restarts))
		err := cmd.Run()
		code := cmd.ProcessState.ExitCode()
		if code >= 0 {
			// A real exit, even a failing one, is the campaign's verdict;
			// only signal deaths are the supervisor's to heal.
			return code, nil
		}
		if restarts >= maxRestarts {
			return 1, fmt.Errorf("supervisor: child died on a signal %d times (last: %v); giving up", restarts+1, err)
		}
		fmt.Fprintf(os.Stderr, "pbse supervisor: child died on a signal (%v); restarting from checkpoint (%d/%d)\n",
			err, restarts+1, maxRestarts)
	}
}

// stripResume removes -resume (in both -resume and -resume=... spellings)
// from an argument list.
func stripResume(args []string) []string {
	out := make([]string, 0, len(args))
	for _, a := range args {
		switch {
		case a == "-resume" || a == "--resume":
		case len(a) > 8 && (a[:8] == "-resume=" || (len(a) > 9 && a[:9] == "--resume=")):
		default:
			out = append(out, a)
		}
	}
	return out
}

// replay re-executes a stored reproducer concretely and verifies it still
// faults at the recorded site. The target is rebuilt from the manifest's
// label (falling back to -driver when the label is empty).
func replay(st *store.Store, driver, id string) (int, error) {
	if m, err := st.ReadManifest(); err != nil {
		return 1, err
	} else if m != nil && m.Label != "" {
		driver = m.Label
	}
	tgt, err := targets.ByDriver(driver)
	if err != nil {
		return 1, err
	}
	prog, err := tgt.Build()
	if err != nil {
		return 1, err
	}
	entry, input, err := st.ReadReproducer(id)
	if err != nil {
		// An unknown bug ID is the common operator mistake; answer it
		// with the store's actual inventory instead of a raw ENOENT.
		if entries, cerr := st.Corpus(); cerr == nil {
			ids := make([]string, 0, len(entries))
			for _, e := range entries {
				ids = append(ids, e.ID)
			}
			if len(ids) == 0 {
				return 1, fmt.Errorf("replay: no reproducer %q: store %s has an empty corpus", id, st.Dir())
			}
			return 1, fmt.Errorf("replay: no reproducer %q in store %s; stored bug IDs: %s",
				id, st.Dir(), strings.Join(ids, ", "))
		}
		return 1, err
	}
	ok, msg, err := store.Replay(prog, entry, input, 0)
	if err != nil {
		return 1, err
	}
	fmt.Printf("replay %s on %s (%s in %s.%s[%d], input %d bytes): %s\n",
		id, driver, entry.Kind, entry.Func, entry.Block, entry.Index, len(input), msg)
	if !ok {
		return 2, nil
	}
	return 0, nil
}

func head(b []byte, n int) []byte {
	if len(b) < n {
		return b
	}
	return b[:n]
}
