package pbse

// Handle is the contract the campaign service builds on: Step-chunked
// execution of any granularity must land bit-identical to one
// uninterrupted Run, and a handle must be safe to construct over a
// store in any state (fresh, mid-campaign, complete).

import (
	"math/rand"
	"reflect"
	"testing"

	"pbse/internal/ir"
	"pbse/internal/store"
	"pbse/internal/symex"
	"pbse/internal/targets"
)

const handleBudget = 10_000

// buildTarget materializes a registered target and a deterministic seed.
func buildTarget(t *testing.T, driver string, seedSize int) (*ir.Program, []byte) {
	t.Helper()
	tgt, err := targets.ByDriver(driver)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog, tgt.GenSeed(rand.New(rand.NewSource(42)), seedSize)
}

func TestHandleRejectsBadOptions(t *testing.T) {
	prog, seed := buildTarget(t, "readelf", 256)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHandle(prog, seed, Options{Budget: handleBudget}, symex.Options{InputSize: len(seed)}); err == nil {
		t.Error("NewHandle without a store succeeded")
	}
	if _, err := NewHandle(prog, seed, Options{Budget: handleBudget, Store: st, MaxRounds: 1},
		symex.Options{InputSize: len(seed)}); err == nil {
		t.Error("NewHandle with MaxRounds set succeeded")
	}
	if _, err := NewHandle(prog, seed, Options{Budget: handleBudget, Store: st, Resume: true},
		symex.Options{InputSize: len(seed)}); err == nil {
		t.Error("NewHandle with Resume set succeeded")
	}
}

// TestHandleStepEquivalence walks one campaign round-by-round through a
// Handle and checks the cumulative result of the last Step is
// bit-identical to an uninterrupted Run, that Done flips exactly at
// budget exhaustion, and that stepping a finished handle is a no-op.
func TestHandleStepEquivalence(t *testing.T) {
	prog, seed := buildTarget(t, "readelf", 256)

	stRef, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(prog, seed, Options{
		Budget: handleBudget, Store: stRef, StoreLabel: "readelf",
	}, symex.Options{InputSize: len(seed)})
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandle(prog, seed, Options{
		Budget: handleBudget, Store: st, StoreLabel: "readelf",
	}, symex.Options{InputSize: len(seed)})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	steps := 0
	for !h.Done() {
		if res, err = h.Step(1); err != nil {
			t.Fatal(err)
		}
		steps++
		// An interrupted Step keeps no Result: a campaign waiting for its
		// next slice must not pin the Executor and analysis Report.
		if res.Interrupted && h.last != nil {
			t.Fatalf("step %d: interrupted Step left the handle holding its Result", steps)
		}
		if steps > 100 {
			t.Fatal("campaign did not finish in 100 single-round steps")
		}
	}
	if steps < 2 {
		t.Fatalf("campaign finished in %d step(s) — nothing was chunked", steps)
	}
	if res.Interrupted {
		t.Error("final Step still reported Interrupted")
	}
	if res.Covered != ref.Covered {
		t.Errorf("coverage: stepped %d, uninterrupted %d", res.Covered, ref.Covered)
	}
	if s, r := bugIDs(res), bugIDs(ref); !reflect.DeepEqual(s, r) {
		t.Errorf("bug IDs: stepped %v, uninterrupted %v", s, r)
	}
	if !reflect.DeepEqual(res.PhaseStats, ref.PhaseStats) {
		t.Errorf("phase stats diverged:\n stepped %+v\n full    %+v", res.PhaseStats, ref.PhaseStats)
	}
	if res.Gov != ref.Gov {
		t.Errorf("gov stats diverged: stepped %+v, full %+v", res.Gov, ref.Gov)
	}

	// Step after done: no-op returning the last result.
	again, err := h.Step(1)
	if err != nil || again != res {
		t.Errorf("Step on finished handle: (%p, %v), want cached %p", again, err, res)
	}

	// A fresh handle over the completed store yields the full result on
	// its first Step — the service's restart-after-completion path.
	h2, err := NewHandle(prog, seed, Options{
		Budget: handleBudget, Store: st, StoreLabel: "readelf",
	}, symex.Options{InputSize: len(seed)})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := h2.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interrupted || res2.Covered != ref.Covered {
		t.Errorf("handle over completed store: interrupted=%v covered=%d, want false/%d",
			res2.Interrupted, res2.Covered, ref.Covered)
	}
	if !h2.Done() {
		t.Error("handle over completed store not Done after first Step")
	}
}
