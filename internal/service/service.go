// Package service turns the pbSE library into a long-running
// multi-tenant campaign daemon (DESIGN.md §13): campaigns are submitted
// over HTTP, multiplexed at scheduler-round granularity over one shared
// pool of slice workers, accounted against per-tenant quotas, streamed
// as events, and persisted through a store.Root so a killed daemon
// resumes every in-flight campaign from its last checkpoint.
//
// The serving model is deliberately built on the checkpoint/resume
// machinery instead of beside it: one "slice" of a campaign is a
// pbse.Handle.Step (resume → N scheduler rounds → checkpoint), so the
// unit of multiplexing is also the unit of durability. Preemption is
// free (the campaign is on disk between slices), crash recovery is the
// same code path as a normal slice, and a campaign's results are
// bit-identical to an uninterrupted pbse.Run no matter how its slices
// interleave with other tenants' work.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"pbse/internal/cluster"
	"pbse/internal/faultinject"
	"pbse/internal/pbse"
	"pbse/internal/store"
	"pbse/internal/supervise"
	"pbse/internal/symex"
	"pbse/internal/targets"
)

// Status is a campaign's lifecycle state. Transitions:
//
//	queued → running → checkpointed → running → … → done|failed|cancelled
//
// A campaign is "checkpointed" whenever it is runnable between slices —
// its entire state is a durable checkpoint on disk. Terminal campaigns
// stay registered (and their stores remain on disk); failed and
// cancelled ones can be re-admitted with Resume.
type Status string

const (
	StatusQueued       Status = "queued"
	StatusRunning      Status = "running"
	StatusCheckpointed Status = "checkpointed"
	StatusDone         Status = "done"
	StatusFailed       Status = "failed"
	StatusCancelled    Status = "cancelled"
)

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Spec is a campaign submission: what to run, for whom, and how hard.
type Spec struct {
	// ID is assigned by the service; client-supplied values are ignored.
	ID string `json:"id,omitempty"`
	// Tenant attributes the campaign for quota accounting ("default"
	// when empty).
	Tenant string `json:"tenant,omitempty"`
	// Driver selects a registered target (readelf, gif2tiff, …).
	Driver string `json:"driver"`
	// SeedSize is the generated seed length in bytes (default 256).
	SeedSize int `json:"seed_size,omitempty"`
	// BuggySeed uses the target's bug-triggering seed generator.
	BuggySeed bool `json:"buggy_seed,omitempty"`
	// RNGSeed drives seed generation and in-phase state selection; the
	// campaign is deterministic in (Driver, SeedSize, BuggySeed,
	// RNGSeed, Budget, TimePeriod, Workers, Deterministic).
	RNGSeed int64 `json:"rng_seed,omitempty"`
	// Budget is the virtual-time budget in instructions (required).
	Budget int64 `json:"budget"`
	// TimePeriod overrides the per-phase first-turn slice (0 = Budget/50).
	TimePeriod int64 `json:"time_period,omitempty"`
	// Priority orders the queue: higher runs first; equal priorities
	// round-robin slice-by-slice.
	Priority int `json:"priority,omitempty"`
	// Workers is the intra-campaign worker count (default 1, the
	// single-threaded scheduler — service-level parallelism comes from
	// running many campaigns, and only Workers 1 or Deterministic
	// campaigns promise bit-identical crash recovery).
	Workers int `json:"workers,omitempty"`
	// Deterministic selects the round-barrier island scheduler for
	// Workers > 1.
	Deterministic bool `json:"deterministic,omitempty"`
	// Inject is a faultinject spec applied to this campaign's executors
	// and store writes (chaos testing; empty = none).
	Inject string `json:"inject,omitempty"`
}

// Quota bounds one tenant. Zero fields are unlimited.
type Quota struct {
	// MaxRunning caps the tenant's campaigns holding pool workers
	// simultaneously.
	MaxRunning int `json:"max_running,omitempty"`
	// MaxLive caps the tenant's non-terminal campaigns (admission).
	MaxLive int `json:"max_live,omitempty"`
	// MaxBudget caps the aggregate virtual-time budget of the tenant's
	// live campaigns (admission).
	MaxBudget int64 `json:"max_budget,omitempty"`
	// MaxWallSeconds caps the tenant's aggregate worker wall-clock
	// seconds; once exceeded, the tenant's queued campaigns fail at
	// their next slice grant instead of running.
	MaxWallSeconds float64 `json:"max_wall_seconds,omitempty"`
}

// Config tunes a Service.
type Config struct {
	// Pool is the shared slice-worker count (default GOMAXPROCS).
	// Negative means zero local workers — a dispatch-only coordinator
	// that runs slices exclusively on joined remote workers.
	Pool int
	// RoundsPerSlice is how many scheduler rounds one granted slice
	// runs before checkpointing and requeueing (default 1 — finest
	// multiplexing; raise it to amortize resume cost on big campaigns).
	RoundsPerSlice int64
	// DefaultQuota applies to every tenant.
	DefaultQuota Quota
	// Supervise, when non-nil, runs every campaign slice under the
	// fault-isolation supervisor (inert without faults, DESIGN.md §11).
	Supervise *supervise.Options
	// Cluster, when non-nil, runs this daemon as one node of a fleet
	// sharing the store root: campaigns are owned through fenced lease
	// files, expired owners' campaigns are adopted, and remote slice
	// workers may join over HTTP (DESIGN.md §14). Nil = single-node,
	// behavior identical to pre-cluster daemons.
	Cluster *ClusterConfig
	// Retain keeps at most this many terminal campaign trees on disk;
	// older ones are swept by the retention GC (0 = keep all).
	Retain int
	// RetainAge sweeps terminal campaign trees older than this
	// (0 = no age bound).
	RetainAge time.Duration
	// GCEvery is the retention sweep cadence (default 1m; the sweep
	// also runs once at Open).
	GCEvery time.Duration
	// SharedCacheMaxBytes bounds the shared verdict-cache log on disk;
	// flushes past the budget evict the oldest records (0 = unbounded).
	SharedCacheMaxBytes int64
	// Logf sinks service logs (default log.Printf).
	Logf func(format string, args ...any)
}

// Sentinel errors, mapped to HTTP statuses by the server layer.
var (
	ErrNotFound = fmt.Errorf("service: campaign not found")
	ErrQuota    = fmt.Errorf("service: tenant quota exceeded")
	ErrDraining = fmt.Errorf("service: daemon is draining")
	ErrNotOwned = fmt.Errorf("service: campaign is owned by another node")
)

// Campaign is one submitted campaign's runtime record. All mutable
// fields are guarded by the owning Service's mutex; handle and st are
// touched only by the single worker running the campaign's current
// slice (slice executions of one campaign are serialized by the queue),
// except that a terminal transition made while no slice runs drops the
// handle under the mutex.
type Campaign struct {
	Spec

	seq         int64
	status      Status
	slices      int64
	rounds      int64
	clock       int64
	covered     int
	bugIDs      []string
	bugSeen     map[string]bool
	errMsg      string
	wallSeconds float64
	cancel      bool

	handle *pbse.Handle
	st     *store.Store

	// Cluster state. owned reports this daemon is responsible for the
	// campaign (always true single-node); lease is the fencing token
	// backing that ownership; counted reports the campaign is included
	// in its tenant's live/budget accounting on this daemon.
	owned   bool
	counted bool
	lease   *cluster.Lease

	done chan struct{} // closed on terminal; replaced on re-admission
}

// tenantState is one tenant's accounting.
type tenantState struct {
	name        string
	quota       Quota
	running     int
	live        int
	budget      int64
	wallSeconds float64
	total       int64
	// maxRunning is the high-water mark of simultaneously running
	// campaigns — the witness the quota stress tests assert on.
	maxRunning int
}

// Service is the campaign daemon core: registry, queue, tenant
// accounting, shared worker pool, and event hub. HTTP lives in Server.
type Service struct {
	cfg  Config
	root *store.Root
	hub  *Hub

	// Cluster plumbing (nil / zero when Config.Cluster is nil).
	leases   *cluster.LeaseManager
	registry *cluster.Registry
	idSuffix string // node suffix appended to assigned campaign IDs

	mu         sync.Mutex
	cond       *sync.Cond
	camps      map[string]*Campaign
	order      []string
	tenants    map[string]*tenantState
	queue      jobQueue
	seqCtr     int64
	nextID     int64
	draining   bool
	adoptions  int64
	leasesLost int64
	gcSwept    int64

	wg sync.WaitGroup // slice grantees: local pool + remote dispatchers

	stop     chan struct{} // closed after the pool drains; ends bg loops
	stopOnce sync.Once
	bg       sync.WaitGroup // heartbeat, adoption, and GC loops
}

// Open starts a service over the store root at dir: recovers every
// campaign already on disk (re-queueing the in-flight ones) and spins
// up the worker pool.
func Open(dir string, cfg Config) (*Service, error) {
	if cfg.Pool == 0 {
		cfg.Pool = runtime.GOMAXPROCS(0)
	} else if cfg.Pool < 0 {
		cfg.Pool = 0 // dispatch-only: remote workers run every slice
	}
	if cfg.RoundsPerSlice <= 0 {
		cfg.RoundsPerSlice = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Cluster != nil {
		cc := cfg.Cluster.withDefaults()
		cfg.Cluster = &cc
	}
	root, err := store.OpenRoot(dir)
	if err != nil {
		return nil, err
	}
	if cfg.SharedCacheMaxBytes > 0 {
		if err := root.SetSharedCacheMaxBytes(cfg.SharedCacheMaxBytes); err != nil {
			return nil, err
		}
	}
	s := &Service{
		cfg:     cfg,
		root:    root,
		hub:     NewHub(),
		camps:   make(map[string]*Campaign),
		tenants: make(map[string]*tenantState),
		nextID:  1,
		stop:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if cc := cfg.Cluster; cc != nil {
		s.idSuffix = sanitizeNodeID(cc.NodeID)
		s.leases = cluster.NewLeaseManager(cc.NodeID, cc.LeaseTTL)
		s.registry = cluster.NewRegistry(cc.Dispatch, s.onWorkerJoin, cfg.Logf)
	}
	// Preload the shared verdict cache at boot: every campaign will wire
	// to it anyway, and loading it eagerly both surfaces corruption at
	// startup and makes prior generations' verdicts visible in /statz
	// before the first slice runs.
	if _, err := root.SharedCache(); err != nil {
		return nil, err
	}
	if err := s.recoverCampaigns(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.leases != nil {
		s.bg.Add(2)
		go s.heartbeatLoop()
		go s.adoptLoop()
	}
	if cfg.Retain > 0 || cfg.RetainAge > 0 {
		s.sweepTerminal()
		s.bg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// Hub returns the event hub (for the HTTP layer and tests).
func (s *Service) Hub() *Hub { return s.hub }

// Root returns the persistence root.
func (s *Service) Root() *store.Root { return s.root }

// tenant returns (creating if needed) a tenant's accounting record.
// Caller holds s.mu.
func (s *Service) tenant(name string) *tenantState {
	t := s.tenants[name]
	if t == nil {
		t = &tenantState{name: name, quota: s.cfg.DefaultQuota}
		s.tenants[name] = t
	}
	return t
}

func (s *Service) nextSeq() int64 {
	s.seqCtr++
	return s.seqCtr
}

// Submit validates, admits (against the tenant's quotas), persists, and
// enqueues a campaign, returning its assigned ID and initial info.
func (s *Service) Submit(spec Spec) (*CampaignInfo, error) {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if !store.ValidID(spec.Tenant) {
		return nil, fmt.Errorf("service: invalid tenant %q", spec.Tenant)
	}
	if _, err := targets.ByDriver(spec.Driver); err != nil {
		return nil, err
	}
	if spec.Budget <= 0 {
		return nil, fmt.Errorf("service: campaign budget must be positive")
	}
	if spec.SeedSize <= 0 {
		spec.SeedSize = 256
	}
	if spec.Workers <= 0 {
		spec.Workers = 1
	}
	if spec.Inject != "" {
		if _, err := faultinject.ParseSpec(spec.Inject, spec.RNGSeed); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	t := s.tenant(spec.Tenant)
	if q := t.quota; (q.MaxLive > 0 && t.live >= q.MaxLive) ||
		(q.MaxBudget > 0 && t.budget+spec.Budget > q.MaxBudget) {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %s (live %d, budget in flight %d)", ErrQuota, t.name, t.live, t.budget)
	}
	spec.ID = fmt.Sprintf("c%06d", s.nextID)
	if s.idSuffix != "" {
		// Node-suffixed IDs keep concurrent daemons over one root from
		// colliding: each daemon's counter only names its own campaigns.
		spec.ID += "-" + s.idSuffix
	}
	s.nextID++
	c := &Campaign{
		Spec:    spec,
		status:  StatusQueued,
		bugSeen: make(map[string]bool),
		owned:   true,
		counted: true,
		done:    make(chan struct{}),
	}
	s.camps[c.ID] = c
	s.order = append(s.order, c.ID)
	t.total++
	t.live++
	t.budget += spec.Budget
	rec := c.record()
	s.mu.Unlock()

	// Make the submission durable before it becomes runnable: the job
	// record is what a restarted daemon recovers from, so it must be on
	// disk before any slice can run (and before the client is acked).
	// In cluster mode the lease is taken first — owning the directory
	// before job.json exists means no peer can adopt a half-submitted
	// campaign (the adoption sweep skips directories it cannot lease).
	_, err := s.root.Campaign(c.ID)
	if err == nil {
		err = s.acquireCampaignLease(c)
	}
	if err == nil {
		err = s.writeJob(rec)
		if err == nil {
			s.mu.Lock()
			if c.status == StatusQueued && !s.draining { // not cancelled in the window
				c.seq = s.nextSeq()
				s.queue.push(c)
				s.publishStatusLocked(c, "status")
				s.cond.Broadcast()
			}
			info := s.infoLocked(c)
			s.mu.Unlock()
			return info, nil
		}
	}
	s.cfg.Logf("service: submit %s: %v", c.ID, err)
	// Persistence failed: the campaign must not run half-durable.
	s.mu.Lock()
	s.finalizeLocked(c, StatusFailed, "submit persistence failed")
	rec = c.record()
	s.mu.Unlock()
	s.persistJobBestEffort(c, rec)
	s.releaseCampaign(c)
	return nil, fmt.Errorf("service: submit %s: persisting job record failed", c.ID)
}

// Cancel requests cancellation. A queued/checkpointed campaign is
// cancelled immediately; a running one finishes its current slice
// (checkpointing as always) and then lands in cancelled. Terminal
// campaigns are left as they are. Returns the campaign's status after
// the call.
func (s *Service) Cancel(id string) (Status, error) {
	s.mu.Lock()
	c := s.camps[id]
	if c == nil {
		s.mu.Unlock()
		return "", ErrNotFound
	}
	switch {
	case c.status.Terminal():
		st := c.status
		s.mu.Unlock()
		return st, nil
	case s.leases != nil && !c.owned:
		// Another node runs this campaign; cancelling its lease-fenced
		// state from here would be a write we are not entitled to.
		s.mu.Unlock()
		return "", fmt.Errorf("%w: cancel %s on its owner", ErrNotOwned, id)
	case c.status == StatusRunning:
		c.cancel = true
		s.mu.Unlock()
		return StatusRunning, nil
	default:
		s.queue.remove(c)
		c.cancel = true
		c.handle = nil // no slice is running: free the executor now
		s.finalizeLocked(c, StatusCancelled, "")
		rec := c.record()
		s.mu.Unlock()
		s.persistJobBestEffort(c, rec)
		s.releaseCampaign(c)
		return StatusCancelled, nil
	}
}

// Resume re-admits a cancelled or failed campaign: it re-enters the
// queue (as checkpointed when its store holds a checkpoint, else
// queued) and counts against the tenant's quotas again. A done
// campaign stays done.
func (s *Service) Resume(id string) (Status, error) {
	s.mu.Lock()
	c := s.camps[id]
	s.mu.Unlock()
	if c == nil {
		return "", ErrNotFound
	}
	st, err := s.root.Campaign(id) // outside the lock: may create/load
	if err != nil {
		return "", err
	}
	// In cluster mode a terminal campaign's lease was released; take it
	// back before re-admitting (refusing if another node beat us to a
	// resurrection). Harmless when the re-admission is rejected below —
	// the heartbeat loop just keeps a lease nobody contends for.
	if err := s.acquireCampaignLease(c); err != nil {
		return "", fmt.Errorf("%w (resume: %v)", ErrNotOwned, err)
	}
	hasCk := st.HasCheckpoint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", ErrDraining
	}
	if !c.status.Terminal() {
		return c.status, nil
	}
	if c.status == StatusDone {
		return StatusDone, nil
	}
	t := s.tenant(c.Tenant)
	if q := t.quota; (q.MaxLive > 0 && t.live >= q.MaxLive) ||
		(q.MaxBudget > 0 && t.budget+c.Budget > q.MaxBudget) {
		return "", fmt.Errorf("%w: tenant %s", ErrQuota, t.name)
	}
	t.live++
	t.budget += c.Budget
	c.counted = true
	c.cancel = false
	c.errMsg = ""
	c.done = make(chan struct{})
	s.hub.Reopen(id)
	if hasCk {
		c.status = StatusCheckpointed
	} else {
		c.status = StatusQueued
	}
	c.seq = s.nextSeq()
	s.queue.push(c)
	s.publishStatusLocked(c, "status")
	s.cond.Broadcast()
	rec := c.record()
	go s.persistJobBestEffort(c, rec)
	return c.status, nil
}

// Drain stops granting slices, waits for in-flight slices to finish
// (each leaves a durable checkpoint), stops the background loops, and —
// in cluster mode — releases every owned lease so surviving daemons
// adopt the drained campaigns immediately instead of waiting out the
// TTL. Idempotent. After a drain the service accepts no new work;
// restart the daemon to resume.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.stopOnce.Do(func() { close(s.stop) })
		s.bg.Wait()
		s.releaseOwnedLeases()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Close drains the pool and closes the event hub (ending every stream).
func (s *Service) Close(ctx context.Context) error {
	err := s.Drain(ctx)
	s.hub.Close()
	return err
}

// WaitTerminal blocks until the campaign reaches a terminal state (as
// of the current admission — a Resume re-arms it) or ctx ends.
func (s *Service) WaitTerminal(ctx context.Context, id string) (Status, error) {
	s.mu.Lock()
	c := s.camps[id]
	if c == nil {
		s.mu.Unlock()
		return "", ErrNotFound
	}
	ch := c.done
	s.mu.Unlock()
	select {
	case <-ch:
		s.mu.Lock()
		defer s.mu.Unlock()
		return c.status, nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// worker is one shared-pool slice runner.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		c := s.next()
		if c == nil {
			return
		}
		s.runSlice(c)
	}
}

// next blocks until a slice can be granted (or the service drains).
// Campaigns of wall-clock-exhausted tenants are failed here — the grant
// point is the only place the budget can be enforced without preempting
// a running slice.
func (s *Service) next() *Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return nil
		}
		for {
			c := s.queue.popBest(func(c *Campaign) bool {
				t := s.tenant(c.Tenant)
				return t.quota.MaxWallSeconds > 0 && t.wallSeconds >= t.quota.MaxWallSeconds
			})
			if c == nil {
				break
			}
			c.handle = nil
			s.finalizeLocked(c, StatusFailed, "tenant worker-seconds quota exhausted")
			rec := c.record()
			go func(c *Campaign, rec jobRecord) {
				s.persistJobBestEffort(c, rec)
				s.releaseCampaign(c)
			}(c, rec)
		}
		if c := s.queue.popBest(func(c *Campaign) bool {
			t := s.tenant(c.Tenant)
			return t.quota.MaxRunning <= 0 || t.running < t.quota.MaxRunning
		}); c != nil {
			t := s.tenant(c.Tenant)
			t.running++
			if t.running > t.maxRunning {
				t.maxRunning = t.running
			}
			c.status = StatusRunning
			s.publishStatusLocked(c, "status")
			return c
		}
		s.cond.Wait()
	}
}

// sliceOutcome is one executed slice's report, the same shape whether
// the slice ran on a local pool worker (runLocalSlice) or on a remote
// worker (cluster.SliceResult): campaign-cumulative totals as of the
// checkpoint the slice left behind, never per-slice deltas.
type sliceOutcome struct {
	err      error
	noop     bool // stepped an already-finished handle
	finished bool
	rounds   int64
	clock    int64
	covered  int
	bugIDs   []string
}

// runSlice executes one granted slice of c on this process and
// reconciles the outcome.
func (s *Service) runSlice(c *Campaign) {
	start := time.Now()
	out := s.runLocalSlice(c)
	s.reconcile(c, out, time.Since(start).Seconds())
}

// runLocalSlice advances c one slice in-process and shapes the result.
func (s *Service) runLocalSlice(c *Campaign) sliceOutcome {
	res, err := s.stepCampaign(c)
	if err != nil {
		return sliceOutcome{err: err}
	}
	if res == nil { // already-finished handle (cannot happen in normal flow)
		return sliceOutcome{noop: true}
	}
	out := sliceOutcome{
		finished: !res.Interrupted,
		clock:    res.Executor.Clock(),
		covered:  res.Covered,
	}
	for _, b := range res.Bugs {
		out.bugIDs = append(out.bugIDs, b.ID())
	}
	// Rounds live in the campaign's manifest (written at its barrier);
	// read while the campaign is quiescent, before taking the lock.
	if c.st != nil {
		if m, merr := c.st.ReadManifest(); merr == nil && m != nil {
			out.rounds = m.Rounds
		}
	}
	return out
}

// reconcile folds one slice outcome into the campaign: progress and bug
// events, terminal transitions, or requeueing with a fresh seq (the
// round-robin step). Terminal campaigns drop their handle, so the
// executor, solver caches and state pool are freed now rather than when
// the daemon exits (a Resume rebuilds it from the on-disk checkpoint),
// get a final fenced job-record write, and release their lease.
func (s *Service) reconcile(c *Campaign, out sliceOutcome, elapsed float64) {
	s.mu.Lock()
	t := s.tenant(c.Tenant)
	t.running--
	t.wallSeconds += elapsed
	c.wallSeconds += elapsed
	c.slices++
	switch {
	case out.err != nil:
		s.finalizeLocked(c, StatusFailed, out.err.Error())
	case out.noop:
		s.finalizeLocked(c, StatusDone, "")
	default:
		c.clock = out.clock
		c.covered = out.covered
		if out.rounds > c.rounds {
			c.rounds = out.rounds
		}
		for _, id := range out.bugIDs {
			if !c.bugSeen[id] {
				c.bugSeen[id] = true
				c.bugIDs = append(c.bugIDs, id)
				s.hub.Publish(Event{
					Type: "bug", Campaign: c.ID, Tenant: c.Tenant,
					Clock: c.clock, Covered: c.covered, BugID: id, Bugs: len(c.bugIDs),
				})
			}
		}
		s.hub.Publish(Event{
			Type: "progress", Campaign: c.ID, Tenant: c.Tenant,
			Rounds: c.rounds, Clock: c.clock, Covered: c.covered, Bugs: len(c.bugIDs),
		})
		switch {
		case s.leases != nil && !c.owned:
			// The lease was lost mid-slice (the fenced writes may have
			// been rejected already). The campaign is not failed — it
			// continues on whichever node stole the lease; the adoption
			// sweep will mirror its progress from disk.
			s.finalizeLocked(c, StatusFailed, "campaign lease lost; another node will adopt it")
		case out.finished:
			s.finalizeLocked(c, StatusDone, "")
		case c.cancel:
			s.finalizeLocked(c, StatusCancelled, "")
		default:
			c.status = StatusCheckpointed
			c.seq = s.nextSeq()
			s.queue.push(c)
			s.publishStatusLocked(c, "status")
		}
	}
	rec := c.record()
	terminal := c.status.Terminal()
	if terminal {
		c.handle = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.persistJobBestEffort(c, rec)
	if terminal {
		s.releaseCampaign(c)
	}
}

// stepCampaign builds the campaign's handle on first use and advances
// it one slice. A panic escaping the engine's own containment fails the
// campaign, never the pool worker.
func (s *Service) stepCampaign(c *Campaign) (res *pbse.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: campaign slice panicked: %v", r)
		}
	}()
	if c.handle == nil {
		if err := s.buildHandle(c); err != nil {
			return nil, err
		}
	}
	return c.handle.Step(s.cfg.RoundsPerSlice)
}

// buildHandle materializes the campaign: target program, deterministic
// seed, per-campaign store wired to the root's shared verdict cache,
// optional fault injection, optional supervision.
func (s *Service) buildHandle(c *Campaign) error {
	h, st, err := buildSpecHandle(s.root, c.Spec, s.cfg)
	if err != nil {
		return err
	}
	c.handle = h
	c.st = st
	return nil
}

// buildSpecHandle materializes a campaign spec into a resumable handle
// over its store in root. The coordinator's local pool and remote slice
// workers both build handles through this one function, so a slice
// produces bit-identical results no matter which node runs it.
func buildSpecHandle(root *store.Root, spec Spec, cfg Config) (*pbse.Handle, *store.Store, error) {
	tgt, err := targets.ByDriver(spec.Driver)
	if err != nil {
		return nil, nil, err
	}
	prog, err := tgt.Build()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(spec.RNGSeed))
	var seed []byte
	if spec.BuggySeed {
		if tgt.GenBuggySeed == nil {
			return nil, nil, fmt.Errorf("service: target %s has no buggy seed generator", spec.Driver)
		}
		seed = tgt.GenBuggySeed(rng)
	} else {
		seed = tgt.GenSeed(rng, spec.SeedSize)
	}
	st, err := root.Campaign(spec.ID)
	if err != nil {
		return nil, nil, err
	}
	exOpts := symex.Options{InputSize: len(seed)}
	if spec.Inject != "" {
		inj, err := faultinject.ParseSpec(spec.Inject, spec.RNGSeed)
		if err != nil {
			return nil, nil, err
		}
		exOpts.FaultInjector = inj
	}
	opts := pbse.Options{
		Budget:        spec.Budget,
		TimePeriod:    spec.TimePeriod,
		Seed:          spec.RNGSeed,
		Workers:       spec.Workers,
		Deterministic: spec.Deterministic,
		Store:         st,
		StoreLabel:    spec.Driver,
	}
	if cfg.Supervise != nil {
		so := *cfg.Supervise
		so.Enabled = true
		so.Seed = spec.RNGSeed
		opts.Supervise = &so
	}
	h, err := pbse.NewHandle(prog, seed, opts, exOpts)
	if err != nil {
		return nil, nil, err
	}
	return h, st, nil
}

// finalizeLocked moves c to a terminal state, releases its tenant
// accounting (when this daemon was counting it), publishes the final
// event, and wakes waiters. Caller holds s.mu.
func (s *Service) finalizeLocked(c *Campaign, status Status, errMsg string) {
	if c.status.Terminal() {
		return // already finalized (e.g. lease loss raced the slice)
	}
	if c.counted {
		t := s.tenant(c.Tenant)
		t.live--
		t.budget -= c.Budget
		c.counted = false
	}
	c.status = status
	c.errMsg = errMsg
	s.hub.Publish(Event{
		Type: "done", Campaign: c.ID, Tenant: c.Tenant, Status: status,
		Rounds: c.rounds, Clock: c.clock, Covered: c.covered, Bugs: len(c.bugIDs),
		Error: errMsg, Final: true,
	})
	close(c.done)
}

// publishStatusLocked emits a lifecycle transition event. Caller holds
// s.mu.
func (s *Service) publishStatusLocked(c *Campaign, typ string) {
	s.hub.Publish(Event{
		Type: typ, Campaign: c.ID, Tenant: c.Tenant, Status: c.status,
		Rounds: c.rounds, Clock: c.clock, Covered: c.covered, Bugs: len(c.bugIDs),
	})
}

// jobRecord is the durable per-campaign service state (job.json in the
// campaign's store directory): the spec plus the terminal-or-resumable
// snapshot a restarted daemon recovers from.
type jobRecord struct {
	Spec        Spec     `json:"spec"`
	Status      Status   `json:"status"`
	Slices      int64    `json:"slices"`
	Rounds      int64    `json:"rounds"`
	Clock       int64    `json:"clock"`
	Covered     int      `json:"covered"`
	BugIDs      []string `json:"bug_ids,omitempty"`
	Error       string   `json:"error,omitempty"`
	WallSeconds float64  `json:"wall_seconds"`
}

// record snapshots c for persistence. Caller holds s.mu.
func (c *Campaign) record() jobRecord {
	return jobRecord{
		Spec:        c.Spec,
		Status:      c.status,
		Slices:      c.slices,
		Rounds:      c.rounds,
		Clock:       c.clock,
		Covered:     c.covered,
		BugIDs:      append([]string(nil), c.bugIDs...),
		Error:       c.errMsg,
		WallSeconds: c.wallSeconds,
	}
}

func (s *Service) jobPath(id string) string {
	return filepath.Join(s.root.CampaignDir(id), "job.json")
}

func (s *Service) writeJob(rec jobRecord) error {
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	return store.AtomicWriteFile(s.jobPath(rec.Spec.ID), append(data, '\n'))
}

func (s *Service) writeJobBestEffort(rec jobRecord) {
	if err := s.writeJob(rec); err != nil {
		s.cfg.Logf("service: persisting job %s: %v", rec.Spec.ID, err)
	}
}

// persistJob writes c's job record, fenced by c's lease in cluster
// mode: a daemon that lost the campaign refuses the write instead of
// clobbering the new owner's record. (The check-then-write window is
// the same one the store fence accepts — see DESIGN.md §14.)
func (s *Service) persistJob(c *Campaign, rec jobRecord) error {
	if s.leases != nil {
		s.mu.Lock()
		l, owned := c.lease, c.owned
		s.mu.Unlock()
		if !owned || l == nil {
			return fmt.Errorf("service: %s: job record write without lease ownership", rec.Spec.ID)
		}
		if err := s.leases.Fence(l)(); err != nil {
			return err
		}
	}
	return s.writeJob(rec)
}

func (s *Service) persistJobBestEffort(c *Campaign, rec jobRecord) {
	if err := s.persistJob(c, rec); err != nil {
		s.cfg.Logf("service: persisting job %s: %v", rec.Spec.ID, err)
	}
}

// recoverCampaigns walks the root's campaign directories and restores
// the registry: terminal campaigns are re-registered as records,
// in-flight ones re-enter the queue (status checkpointed when their
// store holds a checkpoint) and resume at their next granted slice. A
// directory without a readable job record is logged and skipped.
func (s *Service) recoverCampaigns() error {
	ids, err := s.root.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		data, err := os.ReadFile(s.jobPath(id))
		if err != nil {
			s.cfg.Logf("service: recovery: skipping %s: %v", id, err)
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			s.cfg.Logf("service: recovery: skipping %s: %v", id, err)
			continue
		}
		rec.Spec.ID = id
		c := &Campaign{
			Spec:        rec.Spec,
			status:      rec.Status,
			slices:      rec.Slices,
			rounds:      rec.Rounds,
			clock:       rec.Clock,
			covered:     rec.Covered,
			bugIDs:      rec.BugIDs,
			bugSeen:     make(map[string]bool),
			errMsg:      rec.Error,
			wallSeconds: rec.WallSeconds,
			done:        make(chan struct{}),
		}
		for _, b := range rec.BugIDs {
			c.bugSeen[b] = true
		}
		var n int64
		if _, err := fmt.Sscanf(id, "c%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		t := s.tenant(c.Tenant)
		t.total++
		t.wallSeconds += rec.WallSeconds
		s.camps[id] = c
		s.order = append(s.order, id)
		if c.status.Terminal() {
			close(c.done)
			continue
		}
		// In-flight: re-admit. The slice that was running when the
		// daemon died never updated the record; its work since the last
		// checkpoint is simply re-executed (bit-identically).
		st, err := s.root.Campaign(id)
		if err != nil {
			s.cfg.Logf("service: recovery: %s: %v", id, err)
			s.finalizeLocked(c, StatusFailed, "recovery: "+err.Error())
			continue
		}
		if err := s.acquireCampaignLease(c); err != nil {
			// A live peer owns this campaign: register it as observed
			// (the adoption sweep mirrors its progress and will adopt
			// it if that owner ever lapses).
			s.cfg.Logf("service: recovery: %s owned elsewhere: %v", id, err)
			continue
		}
		c.counted = true
		t.live++
		t.budget += c.Budget
		if st.HasCheckpoint() {
			c.status = StatusCheckpointed
		} else {
			c.status = StatusQueued
		}
		c.seq = s.nextSeq()
		s.queue.push(c)
		s.publishStatusLocked(c, "recovered")
	}
	if n := s.queue.len(); n > 0 {
		s.cfg.Logf("service: recovered %d in-flight campaign(s)", n)
	}
	return nil
}

// CampaignInfo is a campaign's externally visible state.
type CampaignInfo struct {
	Spec
	Status      Status   `json:"status"`
	Slices      int64    `json:"slices"`
	Rounds      int64    `json:"rounds"`
	Clock       int64    `json:"clock"`
	Covered     int      `json:"covered"`
	BugIDs      []string `json:"bug_ids,omitempty"`
	Error       string   `json:"error,omitempty"`
	WallSeconds float64  `json:"wall_seconds"`
	// Owned reports this daemon holds the campaign's lease (always
	// true single-node; false for campaigns mirrored from peers).
	Owned bool `json:"owned"`
}

// infoLocked snapshots c. Caller holds s.mu.
func (s *Service) infoLocked(c *Campaign) *CampaignInfo {
	return &CampaignInfo{
		Spec:        c.Spec,
		Status:      c.status,
		Slices:      c.slices,
		Rounds:      c.rounds,
		Clock:       c.clock,
		Covered:     c.covered,
		BugIDs:      append([]string(nil), c.bugIDs...),
		Error:       c.errMsg,
		WallSeconds: c.wallSeconds,
		Owned:       c.owned,
	}
}

// Info returns one campaign's state.
func (s *Service) Info(id string) (*CampaignInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.camps[id]
	if c == nil {
		return nil, ErrNotFound
	}
	return s.infoLocked(c), nil
}

// List returns every campaign (optionally one tenant's) in submission
// order.
func (s *Service) List(tenant string) []*CampaignInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*CampaignInfo, 0, len(s.order))
	for _, id := range s.order {
		c := s.camps[id]
		if tenant != "" && c.Tenant != tenant {
			continue
		}
		out = append(out, s.infoLocked(c))
	}
	return out
}

// TenantInfo is a tenant's externally visible accounting.
type TenantInfo struct {
	Name        string  `json:"name"`
	Quota       Quota   `json:"quota"`
	Running     int     `json:"running"`
	Live        int     `json:"live"`
	Budget      int64   `json:"budget_in_flight"`
	WallSeconds float64 `json:"wall_seconds"`
	Total       int64   `json:"campaigns_total"`
	MaxRunning  int     `json:"max_running_observed"`
}

// Tenant returns one tenant's accounting (zero record for a tenant the
// service has not seen).
func (s *Service) Tenant(name string) *TenantInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		return &TenantInfo{Name: name, Quota: s.cfg.DefaultQuota}
	}
	return &TenantInfo{
		Name: t.name, Quota: t.quota, Running: t.running, Live: t.live,
		Budget: t.budget, WallSeconds: t.wallSeconds, Total: t.total,
		MaxRunning: t.maxRunning,
	}
}

// Tenants lists every tenant seen, sorted by name.
func (s *Service) Tenants() []*TenantInfo {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	out := make([]*TenantInfo, 0, len(names))
	for _, n := range names {
		out = append(out, s.Tenant(n))
	}
	return out
}

// Stats is the daemon-level snapshot served by /statz.
type Stats struct {
	Pool      int         `json:"pool"`
	Queued    int         `json:"queued"`
	Running   int         `json:"running"`
	Live      int         `json:"live"`
	Campaigns int         `json:"campaigns"`
	Tenants   int         `json:"tenants"`
	Draining  bool        `json:"draining"`
	GCSwept   int64       `json:"gc_swept"`
	Shared    store.Stats `json:"shared_store"`
}

// Stats snapshots the daemon.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Pool:      s.cfg.Pool,
		Queued:    s.queue.len(),
		Campaigns: len(s.camps),
		Tenants:   len(s.tenants),
		Draining:  s.draining,
		GCSwept:   s.gcSwept,
		Shared:    s.root.SharedStats(),
	}
	for _, t := range s.tenants {
		st.Running += t.running
		st.Live += t.live
	}
	return st
}
