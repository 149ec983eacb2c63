// Package faultinject provides deterministic, seed-driven fault injection
// for the symbolic execution engine. An Injector is consulted by the
// solver (return Unknown, run slowly) and the executor (panic during a
// step, report allocation pressure); each hook draws from its own
// rand.Rand derived from the injector seed, so a given (seed, Options)
// pair produces the same fault sequence on every run regardless of how
// the hooks interleave.
//
// The injector is a test and hardening harness: production runs simply
// leave it nil. Hooks and counters are safe for concurrent use: each
// stream serialises its draws behind its own mutex and counters are
// atomic, so parallel phase workers may share one injector. The fault
// *sequence* under concurrency depends on goroutine interleaving; for
// per-worker determinism derive one injector per worker with Child. A
// child's fires also count in its parent's Counts, so the injector a run
// was configured with reports every fault the run saw.
package faultinject

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default magnitudes for ParseSpec entries that give only a rate.
const (
	DefaultSlowDelay    = 200 * time.Microsecond
	DefaultPhantomBytes = 1 << 20
	DefaultHangDelay    = 250 * time.Millisecond
)

// Options configure injection rates (probability per consulted event in
// [0, 1]) and magnitudes.
type Options struct {
	// SolverUnknownRate is the probability that a solver Check returns
	// Unknown instead of deciding the query.
	SolverUnknownRate float64
	// SolverSlowRate is the probability that a solver Check stalls for
	// SolverSlowDelay of wall time before deciding.
	SolverSlowRate  float64
	SolverSlowDelay time.Duration // default DefaultSlowDelay
	// StepPanicRate is the probability that an executor step panics.
	StepPanicRate float64
	// StepPanicFunc restricts injected step panics to steps executing
	// inside the named function ("" means any function).
	StepPanicFunc string
	// AllocPressureRate is the probability that a memory-pressure sweep
	// sees AllocPhantomBytes of phantom allocation on top of the real
	// state footprint.
	AllocPressureRate float64
	AllocPhantomBytes int64 // default DefaultPhantomBytes
	// IslandCrashRate is the probability that a supervised island turn
	// panics at turn start (exercising the supervisor's crash
	// containment and state requeue).
	IslandCrashRate float64
	// IslandHangRate is the probability that a supervised island turn
	// stalls for IslandHangDelay of wall time before doing any work
	// (exercising the watchdog/limbo path).
	IslandHangRate  float64
	IslandHangDelay time.Duration // default DefaultHangDelay
	// StoreIORate is the probability that a persistent-store write
	// (checkpoint, manifest, cache flush, reproducer) fails with an
	// injected I/O error.
	StoreIORate float64
	// KillRound, when positive, SIGKILLs this process mid-round after it
	// has executed that many scheduler rounds — after the round's turns
	// but before its barrier checkpoint, so that round's work is
	// genuinely lost and must be recovered from the previous checkpoint.
	// Counted per process: a resumed process starts again from 1, so a
	// supervised re-exec loop still makes forward progress between kills.
	KillRound int64
}

// Counts reports how many times each fault actually fired.
type Counts struct {
	SolverUnknown int64
	SolverSlow    int64
	StepPanic     int64
	AllocPressure int64
	IslandCrash   int64
	IslandHang    int64
	StoreIO       int64
}

// stream is one lockable deterministic rand source. rand.Rand is not
// safe for concurrent use, so every draw holds the stream's mutex.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newStream(seed int64) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed))}
}

// fire draws one float under the stream lock and compares to rate.
func (s *stream) fire(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	s.mu.Lock()
	v := s.rng.Float64()
	s.mu.Unlock()
	return v < rate
}

// Injector is the deterministic fault source. The zero value injects
// nothing; use New.
type Injector struct {
	opts Options
	seed int64
	// one stream per hook so rates stay independent of call interleaving
	unknown, slow, panics, alloc     *stream
	islandCrash, islandHang, storeIO *stream
	counts                           [numKinds]atomic.Int64
	// parent is the injector Child was called on; fires roll up into it
	parent *Injector
}

// kind indexes Injector.counts, one per Counts field.
type kind int

const (
	kSolverUnknown kind = iota
	kSolverSlow
	kStepPanic
	kAllocPressure
	kIslandCrash
	kIslandHang
	kStoreIO
	numKinds
)

// fired counts one fire of k on i and on every ancestor.
func (i *Injector) fired(k kind) {
	for ; i != nil; i = i.parent {
		i.counts[k].Add(1)
	}
}

// New returns an injector whose fault sequence is a pure function of
// seed and opts.
func New(seed int64, opts Options) *Injector {
	if opts.SolverSlowDelay == 0 {
		opts.SolverSlowDelay = DefaultSlowDelay
	}
	if opts.AllocPhantomBytes == 0 {
		opts.AllocPhantomBytes = DefaultPhantomBytes
	}
	if opts.IslandHangDelay == 0 {
		opts.IslandHangDelay = DefaultHangDelay
	}
	return &Injector{
		opts:        opts,
		seed:        seed,
		unknown:     newStream(seed ^ 0x736f6c76),
		slow:        newStream(seed ^ 0x736c6f77),
		panics:      newStream(seed ^ 0x70616e69),
		alloc:       newStream(seed ^ 0x616c6c6f),
		islandCrash: newStream(seed ^ 0x69636173),
		islandHang:  newStream(seed ^ 0x6968616e),
		storeIO:     newStream(seed ^ 0x73696f66),
	}
}

// Child derives an injector with the same options and an id-mixed seed.
// Parallel phase workers each take a Child(phaseID) so every worker sees
// a fault sequence that is a pure function of (seed, id), independent of
// how the workers interleave. The child has its own counters, and its
// fires are added to i's (and i's ancestors') as well.
func (i *Injector) Child(id int64) *Injector {
	if i == nil {
		return nil
	}
	c := New(i.seed*1000003+id+1, i.opts)
	c.parent = i
	return c
}

// Counts returns the fired-fault counters, including every fire of the
// injector's children.
func (i *Injector) Counts() Counts {
	if i == nil {
		return Counts{}
	}
	return Counts{
		SolverUnknown: i.counts[kSolverUnknown].Load(),
		SolverSlow:    i.counts[kSolverSlow].Load(),
		StepPanic:     i.counts[kStepPanic].Load(),
		AllocPressure: i.counts[kAllocPressure].Load(),
		IslandCrash:   i.counts[kIslandCrash].Load(),
		IslandHang:    i.counts[kIslandHang].Load(),
		StoreIO:       i.counts[kStoreIO].Load(),
	}
}

// Opts returns the effective options (defaults applied).
func (i *Injector) Opts() Options {
	if i == nil {
		return Options{}
	}
	return i.opts
}

// SolverUnknown reports whether the current solver query should give up
// with an Unknown verdict.
func (i *Injector) SolverUnknown() bool {
	if i == nil || !i.unknown.fire(i.opts.SolverUnknownRate) {
		return false
	}
	i.fired(kSolverUnknown)
	return true
}

// SolverSlow returns a stall duration for the current solver query, and
// whether the fault fired.
func (i *Injector) SolverSlow() (time.Duration, bool) {
	if i == nil || !i.slow.fire(i.opts.SolverSlowRate) {
		return 0, false
	}
	i.fired(kSolverSlow)
	return i.opts.SolverSlowDelay, true
}

// StepPanic reports whether the executor step currently running inside
// fn should panic.
func (i *Injector) StepPanic(fn string) bool {
	if i == nil {
		return false
	}
	if i.opts.StepPanicFunc != "" && i.opts.StepPanicFunc != fn {
		return false
	}
	if !i.panics.fire(i.opts.StepPanicRate) {
		return false
	}
	i.fired(kStepPanic)
	return true
}

// AllocPhantom returns phantom bytes to add to the current
// memory-pressure sweep (0 when the fault does not fire).
func (i *Injector) AllocPhantom() int64 {
	if i == nil || !i.alloc.fire(i.opts.AllocPressureRate) {
		return 0
	}
	i.fired(kAllocPressure)
	return i.opts.AllocPhantomBytes
}

// IslandCrash reports whether the island turn about to run should panic.
func (i *Injector) IslandCrash() bool {
	if i == nil || !i.islandCrash.fire(i.opts.IslandCrashRate) {
		return false
	}
	i.fired(kIslandCrash)
	return true
}

// IslandHang returns a stall duration for the island turn about to run,
// and whether the fault fired.
func (i *Injector) IslandHang() (time.Duration, bool) {
	if i == nil || !i.islandHang.fire(i.opts.IslandHangRate) {
		return 0, false
	}
	i.fired(kIslandHang)
	return i.opts.IslandHangDelay, true
}

// StoreIO reports whether the persistent-store write about to run should
// fail with an injected I/O error.
func (i *Injector) StoreIO() bool {
	if i == nil || !i.storeIO.fire(i.opts.StoreIORate) {
		return false
	}
	i.fired(kStoreIO)
	return true
}

// KillAtRound SIGKILLs the current process when round matches the
// configured KillRound — the hardest fault the harness can produce: no
// deferred functions run, no buffers flush, exactly like an external
// kill -9. It never returns when the fault fires.
func (i *Injector) KillAtRound(round int64) {
	if i == nil || i.opts.KillRound <= 0 || round != i.opts.KillRound {
		return
	}
	killSelf()
}

// ParseSpec builds an injector from a comma-separated spec of
// kind=rate[:magnitude] entries, e.g.
//
//	solver-unknown=0.1,solver-slow=0.05:1ms,step-panic=0.01,alloc-pressure=0.2:1048576
//
// Magnitudes: solver-slow takes a duration (default 200µs),
// alloc-pressure takes bytes (default 1 MiB), island-hang takes a
// duration (default 250ms). kill-round takes an integer round number
// instead of a rate. An empty spec returns nil (no injection).
func ParseSpec(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var opts Options
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("faultinject: bad entry %q (want kind=rate)", part)
		}
		if kv[0] == "kill-round" {
			n, err := strconv.ParseInt(kv[1], 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("faultinject: bad round %q for kill-round (want positive integer)", kv[1])
			}
			opts.KillRound = n
			continue
		}
		val, mag, hasMag := strings.Cut(kv[1], ":")
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("faultinject: bad rate %q for %s", kv[1], kv[0])
		}
		switch kv[0] {
		case "solver-unknown":
			opts.SolverUnknownRate = rate
		case "solver-slow":
			opts.SolverSlowRate = rate
			if hasMag {
				d, err := time.ParseDuration(mag)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad delay %q: %v", mag, err)
				}
				opts.SolverSlowDelay = d
			}
		case "step-panic":
			if hasMag {
				return nil, fmt.Errorf("faultinject: step-panic takes no magnitude (got %q)", mag)
			}
			opts.StepPanicRate = rate
		case "alloc-pressure":
			opts.AllocPressureRate = rate
			if hasMag {
				n, err := strconv.ParseInt(mag, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad byte count %q: %v", mag, err)
				}
				opts.AllocPhantomBytes = n
			}
		case "island-crash":
			if hasMag {
				return nil, fmt.Errorf("faultinject: island-crash takes no magnitude (got %q)", mag)
			}
			opts.IslandCrashRate = rate
		case "island-hang":
			opts.IslandHangRate = rate
			if hasMag {
				d, err := time.ParseDuration(mag)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad delay %q: %v", mag, err)
				}
				opts.IslandHangDelay = d
			}
		case "store-io":
			if hasMag {
				return nil, fmt.Errorf("faultinject: store-io takes no magnitude (got %q)", mag)
			}
			opts.StoreIORate = rate
		default:
			return nil, fmt.Errorf("faultinject: unknown kind %q", kv[0])
		}
	}
	return New(seed, opts), nil
}
