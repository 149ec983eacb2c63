package pbse

// Handle is the resumable campaign API the serving layer drives. Where
// Run owns a campaign from seed to budget exhaustion in one call, a
// Handle executes the same campaign as a sequence of bounded Step
// calls, each leaving a durable round-barrier checkpoint behind before
// returning. Between Steps the campaign exists only on disk, so a
// process may interleave many campaigns over one worker pool, drop a
// campaign for hours, or die outright — the next Step (in this process
// or another) resumes from the checkpoint.
//
// Determinism: a campaign executed in Steps of any granularity lands on
// exactly the coverage, bug-ID set, phase stats, and governance
// counters of one uninterrupted Run with the same options — each Step
// is a checkpoint/resume cycle, and those are bit-exact (DESIGN.md §9).
// Sharing one persistent verdict cache across many concurrent handles
// keeps this property: shared verdicts only short-circuit solver work,
// never change its answers (store.Root, DESIGN.md §13).

import (
	"fmt"
	"sync"

	"pbse/internal/ir"
	"pbse/internal/symex"
)

// Handle is one resumable campaign bound to a store directory. Methods
// are safe for concurrent use, but Steps serialize: a campaign is a
// single logical thread of execution no matter how many goroutines
// drive it.
type Handle struct {
	prog   *ir.Program
	seed   []byte
	opts   Options
	exOpts symex.Options

	mu sync.Mutex
	// last is the final Result, set exactly when the campaign is done
	// (Step on a finished handle returns it). An interrupted Step keeps
	// nothing, so a queued campaign pins no Executor or analysis Report
	// between Steps.
	last *Result
}

// NewHandle binds a campaign to its store. Options.Store is mandatory —
// a handle is resumable by construction — and MaxRounds/Resume must be
// left zero: the handle owns both (the per-Step round budget and the
// fresh-vs-resume decision, which it makes from the store's state). A
// store already holding this campaign's checkpoint is picked up where
// it left off; even a store whose campaign already completed yields a
// full Result from the first Step — the resume path reconstructs the
// final position and falls straight through.
func NewHandle(prog *ir.Program, seed []byte, opts Options, exOpts symex.Options) (*Handle, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("pbse: NewHandle requires Options.Store")
	}
	if opts.MaxRounds != 0 {
		return nil, fmt.Errorf("pbse: NewHandle owns MaxRounds; pass the per-step round budget to Step")
	}
	if opts.Resume {
		return nil, fmt.Errorf("pbse: NewHandle owns Resume; it decides fresh-vs-resume from the store")
	}
	return &Handle{prog: prog, seed: append([]byte(nil), seed...), opts: opts, exOpts: exOpts}, nil
}

// Step advances the campaign by at most rounds scheduler rounds (0 =
// run to budget exhaustion) and returns the campaign-cumulative Result:
// coverage, bugs, phase stats, and governance counters include all
// rounds ever executed, in this process or any before it. The returned
// Result's Interrupted flag is false exactly when the campaign is
// finished. Stepping a finished campaign is a no-op returning the last
// Result.
func (h *Handle) Step(rounds int64) (*Result, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.last != nil {
		return h.last, nil
	}
	o := h.opts
	o.MaxRounds = rounds
	o.Resume = o.Store.HasCheckpoint()
	res, err := Run(h.prog, h.seed, o, h.exOpts)
	if err != nil {
		return nil, err
	}
	if !res.Interrupted {
		h.last = res
	}
	return res, nil
}

// Done reports whether the campaign has drained its budget. A finished
// campaign's store manifest is marked complete and all Steps are no-ops.
func (h *Handle) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last != nil
}
