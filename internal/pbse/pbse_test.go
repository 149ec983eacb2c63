package pbse

import (
	"math/rand"
	"reflect"
	"testing"

	"pbse/internal/interp"
	"pbse/internal/symex"
	"pbse/internal/targets"
)

const testBudget = 400_000

func runPBSE(t *testing.T, driver string, budget int64, opts Options) *Result {
	t.Helper()
	tgt, err := targets.ByDriver(driver)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	seed := tgt.GenSeed(rand.New(rand.NewSource(42)), 576)
	opts.Budget = budget
	res, err := Run(prog, seed, opts, symex.Options{InputSize: len(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPBSEEndToEndMiniELF(t *testing.T) {
	skipIfShort(t)
	res := runPBSE(t, "readelf", testBudget, Options{})
	if res.Covered == 0 {
		t.Fatal("no coverage")
	}
	if res.Division == nil || len(res.Division.Phases) == 0 {
		t.Fatal("no phases identified")
	}
	if res.CTime <= 0 {
		t.Error("c-time not recorded")
	}
	if res.PTime <= 0 {
		t.Error("p-time not recorded")
	}
	if len(res.Series) == 0 {
		t.Error("coverage series empty")
	}
	// seedStates must be distributed over phases
	total := 0
	for _, ps := range res.PhaseStats {
		total += ps.SeedStates
	}
	if total == 0 {
		t.Error("no seedStates assigned to any phase")
	}
}

func TestPBSEFindsDeepBugs(t *testing.T) {
	skipIfShort(t)
	res := runPBSE(t, "readelf", 800_000, Options{})
	if len(res.Bugs) == 0 {
		t.Fatal("pbSE found no bugs in minielf")
	}
	foundWithWitness := 0
	tgt, _ := targets.ByDriver("readelf")
	prog, _ := tgt.Build()
	for _, b := range res.Bugs {
		if b.Input == nil {
			continue
		}
		r := interp.New(prog, b.Input, interp.Options{MaxSteps: 10_000_000}).Run()
		if r.Reason == interp.StopFault {
			foundWithWitness++
		} else {
			t.Errorf("witness for %v does not reproduce (got %v)", b, r.Reason)
		}
	}
	if foundWithWitness == 0 {
		t.Error("no bug had a reproducing witness")
	}
	// bugs must be attributed to a phase
	for _, b := range res.Bugs {
		if b.Phase < 0 {
			t.Errorf("bug %v has no phase attribution", b)
		}
	}
}

// TestPBSEBeatsKLEEDefault is the headline claim (Table I/II shape): at
// the same virtual-time budget, pbSE covers more basic blocks than
// KLEE's default searcher started from scratch.
func TestPBSEBeatsKLEEDefault(t *testing.T) {
	skipIfShort(t)
	const budget = 500_000
	tgt, err := targets.ByDriver("readelf")
	if err != nil {
		t.Fatal(err)
	}
	seed := tgt.GenSeed(rand.New(rand.NewSource(42)), 576)

	// pbSE
	progA, _ := tgt.Build()
	pres, err := Run(progA, seed, Options{Budget: budget}, symex.Options{InputSize: len(seed)})
	if err != nil {
		t.Fatal(err)
	}

	// KLEE default (random-path + covnew interleaved), symbolic file of
	// the same size
	progB, _ := tgt.Build()
	ex := symex.NewExecutor(progB, symex.Options{InputSize: len(seed)})
	rng := rand.New(rand.NewSource(1))
	s, _ := symex.NewSearcher(symex.SearchDefault, ex, rng)
	s.Add(ex.NewEntryState())
	(&symex.Runner{Ex: ex, Search: s}).Run(budget)

	t.Logf("pbSE covered %d, KLEE default covered %d", pres.Covered, ex.NumCovered())
	if pres.Covered <= ex.NumCovered() {
		t.Errorf("pbSE (%d) did not beat KLEE default (%d)", pres.Covered, ex.NumCovered())
	}
}

// TestPBSEDeterminism re-runs one driver and expects identical results.
// readelf, not pngtest: pngtest's solver load made this one test take
// ~10 minutes, pushing the package past go test's default timeout. The
// determinism property is driver-independent (all randomness flows from
// the seed), pngtest still runs in TestPBSEAllTargets, and the parallel
// scheduler's stronger determinism gate is TestParallelDeterminism.
func TestPBSEDeterminism(t *testing.T) {
	skipIfShort(t)
	r1 := runPBSE(t, "readelf", testBudget/4, Options{})
	r2 := runPBSE(t, "readelf", testBudget/4, Options{})
	if r1.Covered != r2.Covered || len(r1.Bugs) != len(r2.Bugs) {
		t.Errorf("nondeterministic: covered %d/%d bugs %d/%d",
			r1.Covered, r2.Covered, len(r1.Bugs), len(r2.Bugs))
	}
}

// TestBatchSiblingsIgnored: every executor runs the one batched query
// pipeline, so symex.Options.BatchSiblings must not change a W=1 run in
// any observable way — coverage, bug IDs, per-phase stats and solver
// counters all match.
func TestBatchSiblingsIgnored(t *testing.T) {
	prog, seed := buildTarget(t, "readelf", 576)
	run := func(batch bool) *Result {
		res, err := Run(prog, seed, Options{Budget: 50_000, Seed: 42, Workers: 1},
			symex.Options{InputSize: len(seed), BatchSiblings: batch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := run(true), run(false)
	if !reflect.DeepEqual(on.Executor.CoveredBlocks(), off.Executor.CoveredBlocks()) {
		t.Errorf("coverage differs: %d blocks with BatchSiblings, %d without", on.Covered, off.Covered)
	}
	if a, b := bugIDs(on), bugIDs(off); !reflect.DeepEqual(a, b) {
		t.Errorf("bug IDs differ: %v vs %v", a, b)
	}
	if !reflect.DeepEqual(on.PhaseStats, off.PhaseStats) {
		t.Errorf("phase stats differ:\n%+v\n%+v", on.PhaseStats, off.PhaseStats)
	}
	if on.SolverStats != off.SolverStats {
		t.Errorf("solver stats differ:\n%+v\n%+v", on.SolverStats, off.SolverStats)
	}
}

func TestPBSESequentialAblation(t *testing.T) {
	skipIfShort(t)
	seq := runPBSE(t, "readelf", testBudget/4, Options{Sequential: true})
	if seq.Covered == 0 {
		t.Fatal("sequential scheduling produced no coverage")
	}
}

func TestPBSEDedupAblation(t *testing.T) {
	skipIfShort(t)
	with := runPBSE(t, "readelf", testBudget/4, Options{})
	without := runPBSE(t, "readelf", testBudget/4, Options{DisableDedup: true})
	// dedup strictly reduces the seedState pool
	sum := func(r *Result) int {
		n := 0
		for _, ps := range r.PhaseStats {
			n += ps.SeedStates
		}
		return n
	}
	if sum(with) >= sum(without) {
		t.Errorf("dedup did not reduce seedStates: %d vs %d", sum(with), sum(without))
	}
}

func TestPBSEAllTargets(t *testing.T) {
	skipIfShort(t)
	for _, driver := range []string{"readelf", "pngtest", "gif2tiff", "tiff2rgba", "dwarfdump"} {
		t.Run(driver, func(t *testing.T) {
			res := runPBSE(t, driver, testBudget/8, Options{})
			if res.Covered == 0 {
				t.Error("no coverage")
			}
			if len(res.Division.Phases) == 0 {
				t.Error("no phases")
			}
		})
	}
}

func TestPBSERejectsZeroBudget(t *testing.T) {
	tgt, _ := targets.ByDriver("readelf")
	prog, _ := tgt.Build()
	if _, err := Run(prog, []byte{1}, Options{}, symex.Options{InputSize: 1}); err == nil {
		t.Error("expected error for zero budget")
	}
}

// skipIfShort skips full-budget pbSE runs under -short; the quick smoke
// test below keeps the end-to-end path exercised.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-budget pbSE run skipped in -short mode")
	}
}

// TestPBSEShortSmoke is the -short stand-in for the full-budget tests: a
// small-budget end-to-end run that still goes through concolic execution,
// phase division, static hints and round-robin scheduling.
func TestPBSEShortSmoke(t *testing.T) {
	res := runPBSE(t, "readelf", 40_000, Options{})
	if res.Covered == 0 {
		t.Fatal("smoke run covered nothing")
	}
	if res.Division == nil || len(res.Division.Phases) == 0 {
		t.Fatal("smoke run produced no phases")
	}
	if res.Hints == nil {
		t.Fatal("smoke run computed no static hints")
	}
}
