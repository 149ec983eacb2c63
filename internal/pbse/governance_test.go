package pbse

import (
	"math/rand"
	"testing"
	"time"

	"pbse/internal/faultinject"
	"pbse/internal/symex"
	"pbse/internal/targets"
)

// runGoverned runs pbSE on readelf with the given worker count and
// executor options, asserting the run itself never errors or panics.
func runGoverned(t *testing.T, budget int64, workers int, exOpts symex.Options) *Result {
	t.Helper()
	tgt, err := targets.ByDriver("readelf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	seed := tgt.GenSeed(rand.New(rand.NewSource(42)), 576)
	exOpts.InputSize = len(seed)
	res, err := Run(prog, seed, Options{Budget: budget, Seed: 42, Workers: workers}, exOpts)
	if err != nil {
		t.Fatalf("pbse.Run under fault injection: %v", err)
	}
	return res
}

// TestPBSECompletesUnderEveryFault is the tentpole acceptance check:
// under each fault mode, pbse.Run terminates without a panic escaping,
// returns non-zero coverage, and reports accurate governance counters.
func TestPBSECompletesUnderEveryFault(t *testing.T) {
	skipIfShort(t)
	const budget = 60_000
	cases := []struct {
		name   string
		opts   faultinject.Options
		exOpts symex.Options
		check  func(t *testing.T, res *Result, inj *faultinject.Injector)
	}{
		{
			name: "solver-unknown",
			opts: faultinject.Options{SolverUnknownRate: 0.5},
			check: func(t *testing.T, res *Result, inj *faultinject.Injector) {
				if res.Gov.SolverUnknowns == 0 {
					t.Error("no governed Unknowns despite injection")
				}
				if inj.Counts().SolverUnknown == 0 {
					t.Error("injector never fired")
				}
				st := res.Executor.Solver.Stats()
				if st.InjectedUnknowns == 0 {
					t.Error("solver stats missed injected Unknowns")
				}
			},
		},
		{
			name: "solver-slow",
			opts: faultinject.Options{SolverSlowRate: 1, SolverSlowDelay: 20 * time.Microsecond},
			check: func(t *testing.T, res *Result, inj *faultinject.Injector) {
				if inj.Counts().SolverSlow == 0 {
					t.Error("slow-query fault never fired")
				}
			},
		},
		{
			name: "step-panic",
			opts: faultinject.Options{StepPanicRate: 0.05},
			check: func(t *testing.T, res *Result, inj *faultinject.Injector) {
				if res.Gov.Quarantines == 0 {
					t.Error("no quarantines despite injected step panics")
				}
				if res.Gov.Quarantines != int64(inj.Counts().StepPanic) {
					t.Errorf("quarantines = %d, injector fired %d times",
						res.Gov.Quarantines, inj.Counts().StepPanic)
				}
			},
		},
		{
			name:   "alloc-pressure",
			opts:   faultinject.Options{AllocPressureRate: 1, AllocPhantomBytes: 1 << 40},
			exOpts: symex.Options{MaxStateBytes: 1 << 20},
			check: func(t *testing.T, res *Result, inj *faultinject.Injector) {
				if inj.Counts().AllocPressure == 0 {
					t.Error("alloc-pressure fault never fired")
				}
				if res.Gov.Evictions == 0 {
					t.Error("no evictions despite phantom pressure above the cap")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(11, tc.opts)
			exOpts := tc.exOpts
			exOpts.FaultInjector = inj
			res := runGoverned(t, budget, 1, exOpts)
			if res.Covered == 0 {
				t.Fatal("run covered nothing under fault injection")
			}
			tc.check(t, res, inj)
		})
	}
}

// TestStepPanicCountsRollUpFromWorkers: work-stealing workers draw their
// faults from per-worker child injectors, and every fire must still
// reach the configured injector's Counts — one quarantine per injected
// step panic.
func TestStepPanicCountsRollUpFromWorkers(t *testing.T) {
	inj := faultinject.New(11, faultinject.Options{StepPanicRate: 0.05})
	res := runGoverned(t, 60_000, 4, symex.Options{FaultInjector: inj})
	if res.Workers != 4 {
		t.Fatalf("ran with %d workers, want 4", res.Workers)
	}
	fired := inj.Counts().StepPanic
	if fired == 0 || res.Gov.Quarantines == 0 {
		t.Fatalf("no step panics at W=4: fired %d, quarantines %d", fired, res.Gov.Quarantines)
	}
	if res.Gov.Quarantines != fired {
		t.Errorf("quarantines = %d, injector fired %d times", res.Gov.Quarantines, fired)
	}
}

// TestPBSENoFaultZeroGovernance: a clean run must report zero
// quarantines, evictions, and concretizations — governance machinery is
// inert when nothing goes wrong.
func TestPBSENoFaultZeroGovernance(t *testing.T) {
	skipIfShort(t)
	res := runGoverned(t, 60_000, 1, symex.Options{})
	if res.Covered == 0 {
		t.Fatal("no coverage")
	}
	g := res.Gov
	if g.Quarantines != 0 || g.Evictions != 0 || g.Concretizations != 0 {
		t.Errorf("clean run has governance events: %+v", g)
	}
	for _, ps := range res.PhaseStats {
		if ps.Quarantines != 0 {
			t.Errorf("phase %d reports %d quarantines on a clean run", ps.ID, ps.Quarantines)
		}
	}
	if res.Executor.Solver.Stats().InjectedUnknowns != 0 {
		t.Error("injected Unknowns counted without an injector")
	}
}

// TestPBSEPhaseProgressUnderQuarantine is satellite (d): when every step
// inside one function panics — so any seedState entering it quarantines —
// the phase scheduler must keep making progress in the other phases
// instead of wedging on the poisoned one.
func TestPBSEPhaseProgressUnderQuarantine(t *testing.T) {
	skipIfShort(t)
	inj := faultinject.New(3, faultinject.Options{
		StepPanicRate: 1,
		StepPanicFunc: "process_section_headers",
	})
	res := runGoverned(t, 120_000, 1, symex.Options{FaultInjector: inj})
	if res.Gov.Quarantines == 0 {
		t.Skip("no state reached the poisoned function at this budget")
	}
	var healthySteps int64
	for _, ps := range res.PhaseStats {
		if ps.Quarantines == 0 {
			healthySteps += ps.Steps
		}
	}
	if healthySteps == 0 {
		t.Error("no un-poisoned phase made progress")
	}
	if res.Covered == 0 {
		t.Error("no coverage with one poisoned function")
	}
}

// TestPBSEGovernanceShortSmoke is the -short stand-in for the fault
// suite: one small run with combined solver-unknown and step-panic
// injection must complete with coverage and a consistent zero/non-zero
// counter split.
func TestPBSEGovernanceShortSmoke(t *testing.T) {
	inj := faultinject.New(11, faultinject.Options{
		SolverUnknownRate: 0.3,
		StepPanicRate:     0.02,
	})
	res := runGoverned(t, 20_000, 1, symex.Options{FaultInjector: inj})
	if res.Covered == 0 {
		t.Fatal("smoke run covered nothing under injection")
	}
	if inj.Counts().SolverUnknown > 0 && res.Gov.SolverUnknowns == 0 {
		t.Error("injector fired but governance saw no Unknowns")
	}
	if res.Gov.Evictions != 0 {
		t.Error("evictions without a MaxStateBytes cap")
	}
}
