package service

// Cluster integration (DESIGN.md §14): several pbsed daemons over one
// shared store root. Each campaign is owned by exactly one daemon
// through a fenced lease file in its store directory; owners heartbeat
// their leases, peers mirror each other's campaigns from the job
// records on disk, and an owner that dies (or drains) is succeeded by
// whichever peer steals its expired (or released) lease first. Remote
// slice workers — `pbsed -join` processes — register with a
// coordinator and execute dispatched slices against the same root;
// the scheduler grants slices to local pool goroutines and remote
// dispatcher goroutines from the same queue, so quotas, priorities,
// and round-robin apply uniformly no matter where a slice runs.
//
// Safety rests on two properties the lower layers already guarantee:
// slices are bit-deterministic functions of the checkpoint they resume
// from, and checkpoint-class writes are atomic and lease-fenced. Any
// duplicated, stale, or re-dispatched slice therefore either writes
// nothing (fenced) or writes a genuine checkpoint some owner could
// have produced anyway — re-execution can waste work, never corrupt.

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pbse/internal/cluster"
	"pbse/internal/pbse"
	"pbse/internal/store"
)

// ClusterConfig tunes a daemon's fleet membership.
type ClusterConfig struct {
	// NodeID is this daemon's unique owner identity (lease files and
	// campaign-ID suffixes). Default: "<hostname>-<pid>".
	NodeID string
	// LeaseTTL is how long an owned campaign's lease lives between
	// heartbeat renewals; a daemon silent for a TTL loses its
	// campaigns to adoption (default 10s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the lease renewal cadence (default LeaseTTL/3).
	HeartbeatEvery time.Duration
	// AdoptEvery is how often the daemon scans the root for expired
	// peers' campaigns to adopt (default LeaseTTL).
	AdoptEvery time.Duration
	// Dispatch tunes the remote slice round trip.
	Dispatch cluster.DispatchOptions
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.NodeID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "node"
		}
		c.NodeID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseTTL / 3
	}
	if c.AdoptEvery <= 0 {
		c.AdoptEvery = c.LeaseTTL
	}
	return c
}

// sanitizeNodeID shapes a node ID into a campaign-ID suffix: only
// store.ValidID characters, bounded so "c%06d-<suffix>" stays well
// under the 64-byte ID limit.
func sanitizeNodeID(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id) && len(out) < 40; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return "node"
	}
	return string(out)
}

// Registry returns the remote-worker registry (nil single-node).
func (s *Service) Registry() *cluster.Registry { return s.registry }

// NodeID returns this daemon's cluster identity ("" single-node).
func (s *Service) NodeID() string {
	if s.leases == nil {
		return ""
	}
	return s.leases.Owner()
}

// leasePath is where a campaign's lease file lives.
func (s *Service) leasePath(id string) string {
	return filepath.Join(s.root.CampaignDir(id), cluster.LeaseFileName)
}

// acquireCampaignLease takes c's lease and installs the write fence on
// its store. No-op single-node (where every campaign is born owned).
func (s *Service) acquireCampaignLease(c *Campaign) error {
	if s.leases == nil {
		s.mu.Lock()
		c.owned = true
		s.mu.Unlock()
		return nil
	}
	st, err := s.root.Campaign(c.ID)
	if err != nil {
		return err
	}
	l, err := s.leases.Acquire(s.leasePath(c.ID))
	if err != nil {
		return err
	}
	st.SetFence(s.leases.Fence(l))
	s.mu.Lock()
	c.lease = l
	c.owned = true
	s.mu.Unlock()
	return nil
}

// releaseCampaign gives up c's lease (after its terminal job record is
// on disk), so peers see the campaign unowned immediately.
func (s *Service) releaseCampaign(c *Campaign) {
	if s.leases == nil {
		return
	}
	s.mu.Lock()
	l := c.lease
	c.lease = nil
	c.owned = false
	s.mu.Unlock()
	if l != nil {
		if err := s.leases.Release(l); err != nil {
			s.cfg.Logf("service: releasing lease on %s: %v", c.ID, err)
		}
	}
}

// releaseOwnedLeases releases every lease this daemon still holds —
// the drain path's parting gift: survivors adopt instantly instead of
// waiting out the TTL.
func (s *Service) releaseOwnedLeases() {
	if s.leases == nil {
		return
	}
	for _, l := range s.leases.Held() {
		if err := s.leases.Release(l); err != nil {
			s.cfg.Logf("service: drain: releasing %s: %v", l.Path, err)
		}
	}
	s.mu.Lock()
	for _, c := range s.camps {
		if c.lease != nil {
			c.lease = nil
			c.owned = false
		}
	}
	s.mu.Unlock()
}

// heartbeatLoop renews every held lease each cadence. A renewal that
// comes back ErrLost means the lease was stolen (we were too slow) —
// the campaign is handed over.
func (s *Service) heartbeatLoop() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(s.cfg.Cluster.HeartbeatEvery):
		}
		for _, l := range s.leases.Held() {
			if err := s.leases.Renew(l); err != nil {
				s.handleLeaseLoss(l, err)
			}
		}
	}
}

// handleLeaseLoss reconciles the registry with a lease we failed to
// renew: the campaign now belongs to whoever stole it.
func (s *Service) handleLeaseLoss(l *cluster.Lease, cause error) {
	s.mu.Lock()
	var c *Campaign
	for _, cc := range s.camps {
		if cc.lease == l {
			c = cc
			break
		}
	}
	if c == nil {
		s.mu.Unlock()
		return
	}
	s.leasesLost++
	c.lease = nil
	c.owned = false
	switch {
	case c.status.Terminal():
		// Nothing in flight; the terminal record is already on disk.
	case c.status == StatusRunning:
		// The in-flight slice keeps running but its checkpoint-class
		// writes are fenced out; reconcile sees the lost ownership.
	default:
		s.queue.remove(c)
		s.finalizeLocked(c, StatusFailed, "campaign lease lost; another node will adopt it")
	}
	s.mu.Unlock()
	s.cfg.Logf("service: lost lease on %s (epoch %d): %v", c.ID, l.Epoch, cause)
}

// adoptLoop periodically scans the root for campaigns this daemon
// should mirror or adopt.
func (s *Service) adoptLoop() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(s.cfg.Cluster.AdoptEvery):
		}
		s.adoptSweep()
	}
}

// adoptSweep walks every campaign directory under the root. Campaigns
// owned by this daemon are skipped; others are mirrored into the local
// registry from their job records, and non-terminal ones whose lease
// is expired (or released) are adopted: lease stolen, write fence
// installed, and the campaign re-queued to resume from its checkpoint.
func (s *Service) adoptSweep() {
	ids, err := s.root.List()
	if err != nil {
		s.cfg.Logf("service: adoption sweep: %v", err)
		return
	}
	for _, id := range ids {
		s.mu.Lock()
		c := s.camps[id]
		owned := c != nil && c.owned
		draining := s.draining
		s.mu.Unlock()
		if owned || draining {
			continue
		}
		rec, _, err := s.readJobRecord(id)
		if err != nil {
			continue // half-created or foreign directory
		}
		if rec.Status.Terminal() {
			s.observeCampaign(id, rec)
			continue
		}
		// Non-terminal and not ours: try to take it. Acquire only
		// succeeds on a missing, released, or expired lease — a live
		// owner returns ErrHeld and we just mirror.
		l, err := s.leases.Acquire(s.leasePath(id))
		if err != nil {
			s.observeCampaign(id, rec)
			continue
		}
		// Re-read under ownership: the previous owner may have written
		// a terminal record and released between our read and the steal.
		rec, _, err = s.readJobRecord(id)
		if err != nil || rec.Status.Terminal() {
			s.leases.Release(l)
			if err == nil {
				s.observeCampaign(id, rec)
			}
			continue
		}
		s.adoptCampaign(id, rec, l)
	}
}

// observeCampaign mirrors a peer-owned campaign's on-disk record into
// the local registry, so List/Info/WaitTerminal reflect fleet-wide
// state. Never touches owned campaigns or tenant accounting.
func (s *Service) observeCampaign(id string, rec jobRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.camps[id]
	if c == nil {
		c = &Campaign{
			Spec:    rec.Spec,
			status:  rec.Status,
			bugSeen: make(map[string]bool),
			done:    make(chan struct{}),
		}
		s.camps[id] = c
		s.order = append(s.order, id)
		s.tenant(c.Tenant).total++
		if rec.Status.Terminal() {
			close(c.done)
		}
	}
	if c.owned {
		return // became ours since the caller checked
	}
	wasTerminal := c.status.Terminal()
	c.slices = rec.Slices
	c.rounds = rec.Rounds
	c.clock = rec.Clock
	c.covered = rec.Covered
	c.bugIDs = append([]string(nil), rec.BugIDs...)
	for _, b := range rec.BugIDs {
		c.bugSeen[b] = true
	}
	c.wallSeconds = rec.WallSeconds
	c.errMsg = rec.Error
	switch {
	case rec.Status.Terminal() && !wasTerminal:
		s.finalizeLocked(c, rec.Status, rec.Error)
	case !rec.Status.Terminal() && wasTerminal:
		// A peer resurrected (Resume) a campaign we saw terminal.
		c.status = rec.Status
		c.done = make(chan struct{})
		s.hub.Reopen(id)
	default:
		c.status = rec.Status
	}
}

// adoptCampaign takes over a campaign whose lease we just acquired:
// registry state is reset from the on-disk record, the write fence is
// re-armed on the new epoch, and the campaign re-enters the queue to
// resume from its last checkpoint.
func (s *Service) adoptCampaign(id string, rec jobRecord, l *cluster.Lease) {
	st, err := s.root.Campaign(id)
	if err != nil {
		s.cfg.Logf("service: adopt %s: %v", id, err)
		s.leases.Release(l)
		return
	}
	st.SetFence(s.leases.Fence(l))
	hasCk := st.HasCheckpoint()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.leases.Release(l)
		return
	}
	c := s.camps[id]
	if c == nil {
		c = &Campaign{Spec: rec.Spec, bugSeen: make(map[string]bool), done: make(chan struct{})}
		s.camps[id] = c
		s.order = append(s.order, id)
		s.tenant(c.Tenant).total++
	}
	if c.status.Terminal() {
		// Locally finalized (e.g. our own earlier lease loss): re-arm.
		c.done = make(chan struct{})
		s.hub.Reopen(id)
	}
	c.slices = rec.Slices
	c.rounds = rec.Rounds
	c.clock = rec.Clock
	c.covered = rec.Covered
	c.bugIDs = append([]string(nil), rec.BugIDs...)
	c.bugSeen = make(map[string]bool)
	for _, b := range rec.BugIDs {
		c.bugSeen[b] = true
	}
	c.wallSeconds = rec.WallSeconds
	c.errMsg = ""
	c.cancel = false
	c.handle = nil // force a fresh resume from the on-disk checkpoint
	c.st = st
	c.lease = l
	c.owned = true
	if !c.counted {
		t := s.tenant(c.Tenant)
		t.live++
		t.budget += c.Budget
		c.counted = true
	}
	if hasCk {
		c.status = StatusCheckpointed
	} else {
		c.status = StatusQueued
	}
	c.seq = s.nextSeq()
	s.queue.push(c)
	s.adoptions++
	epoch := l.Epoch
	s.publishStatusLocked(c, "adopted")
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cfg.Logf("service: adopted campaign %s (lease epoch %d)", id, epoch)
}

// readJobRecord reads a campaign's durable job record and its mtime.
func (s *Service) readJobRecord(id string) (jobRecord, time.Time, error) {
	path := s.jobPath(id)
	fi, err := os.Stat(path)
	if err != nil {
		return jobRecord{}, time.Time{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return jobRecord{}, time.Time{}, err
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return jobRecord{}, time.Time{}, err
	}
	rec.Spec.ID = id
	return rec, fi.ModTime(), nil
}

// onWorkerJoin spawns one dispatcher goroutine per slot of a freshly
// joined (or revived) remote worker. Dispatchers count in s.wg like
// local pool workers: Drain waits for their in-flight slices too.
func (s *Service) onWorkerJoin(w *cluster.RemoteWorker) {
	gen := s.registry.Generation(w)
	slots := s.registry.WorkerSlots(w)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	// Add under the same critical section that checks draining: Drain
	// sets draining before it waits, so the Add either happens-before
	// the Wait or does not happen at all.
	s.wg.Add(slots)
	s.mu.Unlock()
	for i := 0; i < slots; i++ {
		go s.remoteDispatcher(w, gen)
	}
}

// remoteDispatcher is one remote worker slot's slice runner: it grants
// from the same queue as local pool workers and ships each slice to
// the worker over HTTP. It retires when the worker dies, is replaced
// by a newer generation, or the service drains.
func (s *Service) remoteDispatcher(w *cluster.RemoteWorker, gen int) {
	defer s.wg.Done()
	for {
		if !s.registry.Usable(w, gen) {
			return
		}
		c := s.next()
		if c == nil {
			return
		}
		if !s.registry.Usable(w, gen) {
			// The worker lapsed while we waited for a grant; hand the
			// slice back for any other grantee.
			s.requeueSlice(c)
			return
		}
		s.mu.Lock()
		l, owned := c.lease, c.owned
		spec := c.Spec
		s.mu.Unlock()
		if !owned || l == nil {
			s.reconcile(c, sliceOutcome{err: fmt.Errorf("campaign lease lost before dispatch")}, 0)
			continue
		}
		specJSON, err := json.Marshal(&spec)
		if err != nil {
			s.reconcile(c, sliceOutcome{err: err}, 0)
			continue
		}
		start := time.Now()
		res, err := s.registry.Dispatch(context.Background(), w, cluster.SliceRequest{
			Campaign: c.ID,
			Rounds:   s.cfg.RoundsPerSlice,
			Owner:    l.Owner,
			Epoch:    l.Epoch,
			Spec:     specJSON,
		})
		if err != nil {
			// Transport failure after retries: the registry declared
			// the worker dead. Requeue the slice — safe anywhere, the
			// worker either never checkpointed or atomically wrote the
			// bit-deterministic checkpoint — and retire.
			s.requeueSlice(c)
			return
		}
		out := sliceOutcome{
			finished: res.Finished,
			rounds:   res.Rounds,
			clock:    res.Clock,
			covered:  res.Covered,
			bugIDs:   res.BugIDs,
		}
		if res.Error != "" {
			out = sliceOutcome{err: fmt.Errorf("remote slice on %s: %s", w.ID, res.Error)}
		}
		s.reconcile(c, out, time.Since(start).Seconds())
	}
}

// requeueSlice returns a granted-but-unexecuted slice to the queue
// (worker death, dispatcher retirement). The campaign made no
// progress, so only the grant accounting is unwound.
func (s *Service) requeueSlice(c *Campaign) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenant(c.Tenant).running--
	switch {
	case c.status.Terminal():
		// Lost ownership and was finalized while granted; nothing to requeue.
	case c.cancel:
		c.handle = nil
		s.finalizeLocked(c, StatusCancelled, "")
		rec := c.record()
		go func() {
			s.persistJobBestEffort(c, rec)
			s.releaseCampaign(c)
		}()
	default:
		if c.slices > 0 {
			c.status = StatusCheckpointed
		} else {
			c.status = StatusQueued
		}
		c.seq = s.nextSeq()
		s.queue.push(c)
		s.publishStatusLocked(c, "status")
	}
	s.cond.Broadcast()
}

// ClusterStats is the /cluster/statz snapshot.
type ClusterStats struct {
	Enabled        bool                  `json:"enabled"`
	NodeID         string                `json:"node_id,omitempty"`
	LeaseTTLMillis int64                 `json:"lease_ttl_ms,omitempty"`
	LeasesHeld     int                   `json:"leases_held"`
	CampaignsOwned int                   `json:"campaigns_owned"`
	Observed       int                   `json:"campaigns_observed"`
	Adoptions      int64                 `json:"adoptions"`
	LeasesLost     int64                 `json:"leases_lost"`
	Workers        []cluster.WorkerInfo  `json:"workers,omitempty"`
	Dispatch       cluster.DispatchStats `json:"dispatch"`
}

// ClusterStats snapshots the daemon's fleet state.
func (s *Service) ClusterStats() ClusterStats {
	if s.leases == nil {
		return ClusterStats{}
	}
	cs := ClusterStats{
		Enabled:        true,
		NodeID:         s.leases.Owner(),
		LeaseTTLMillis: s.leases.TTL().Milliseconds(),
		LeasesHeld:     len(s.leases.Held()),
		Workers:        s.registry.Workers(),
		Dispatch:       s.registry.Stats(),
	}
	s.mu.Lock()
	for _, c := range s.camps {
		switch {
		case c.owned:
			cs.CampaignsOwned++
		case !c.status.Terminal():
			cs.Observed++
		}
	}
	cs.Adoptions = s.adoptions
	cs.LeasesLost = s.leasesLost
	s.mu.Unlock()
	return cs
}

// SliceExec executes dispatched slices on a worker node: the
// cluster.ExecFunc side of the protocol. It caches one handle per
// campaign until a slice finishes or fails it — safe because every
// Step re-resumes from the shared on-disk checkpoint, so interleaving
// with slices run elsewhere is invisible — and fences each campaign's
// store on the dispatching owner's lease identity before stepping.
type SliceExec struct {
	root *store.Root
	cfg  Config

	mu      sync.Mutex
	handles map[string]*workerCampaign
}

type workerCampaign struct {
	handle *pbse.Handle
	st     *store.Store
}

// NewSliceExec builds a worker-side slice executor over the shared
// root. Config supplies Supervise and RoundsPerSlice defaults; quotas
// and scheduling stay coordinator-side.
func NewSliceExec(root *store.Root, cfg Config) *SliceExec {
	if cfg.RoundsPerSlice <= 0 {
		cfg.RoundsPerSlice = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return &SliceExec{root: root, cfg: cfg, handles: make(map[string]*workerCampaign)}
}

// Exec runs one dispatched slice and reports the campaign-cumulative
// result. Implements cluster.ExecFunc.
func (e *SliceExec) Exec(req cluster.SliceRequest) (out cluster.SliceResult) {
	defer func() {
		if r := recover(); r != nil {
			out = cluster.SliceResult{Error: fmt.Sprintf("slice panicked: %v", r)}
		}
		if out.Finished || out.Error != "" {
			e.mu.Lock()
			delete(e.handles, req.Campaign)
			e.mu.Unlock()
		}
	}()
	var spec Spec
	if err := json.Unmarshal(req.Spec, &spec); err != nil {
		return cluster.SliceResult{Error: fmt.Sprintf("bad spec: %v", err)}
	}
	spec.ID = req.Campaign
	wc, err := e.campaign(spec)
	if err != nil {
		return cluster.SliceResult{Error: err.Error()}
	}
	// Fence on the dispatching owner's lease identity: if the
	// coordinator's lease lapses mid-slice, our checkpoint writes fail
	// instead of clobbering the successor's campaign.
	leasePath := filepath.Join(e.root.CampaignDir(req.Campaign), cluster.LeaseFileName)
	wc.st.SetFence(cluster.FenceCheck(leasePath, req.Owner, req.Epoch))
	rounds := req.Rounds
	if rounds <= 0 {
		rounds = e.cfg.RoundsPerSlice
	}
	res, err := wc.handle.Step(rounds)
	if err != nil {
		return cluster.SliceResult{Error: err.Error()}
	}
	if res == nil {
		return cluster.SliceResult{Finished: true}
	}
	out = cluster.SliceResult{
		Finished: !res.Interrupted,
		Clock:    res.Executor.Clock(),
		Covered:  res.Covered,
	}
	for _, b := range res.Bugs {
		out.BugIDs = append(out.BugIDs, b.ID())
	}
	if m, merr := wc.st.ReadManifest(); merr == nil && m != nil {
		out.Rounds = m.Rounds
	}
	return out
}

// campaign returns (building and caching on first use) the handle for
// one dispatched campaign.
func (e *SliceExec) campaign(spec Spec) (*workerCampaign, error) {
	e.mu.Lock()
	wc := e.handles[spec.ID]
	e.mu.Unlock()
	if wc != nil {
		return wc, nil
	}
	h, st, err := buildSpecHandle(e.root, spec, e.cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if cached := e.handles[spec.ID]; cached != nil {
		wc = cached
	} else {
		wc = &workerCampaign{handle: h, st: st}
		e.handles[spec.ID] = wc
	}
	e.mu.Unlock()
	return wc, nil
}
