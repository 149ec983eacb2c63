package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Lease-file protocol. One campaign's lease lives at
// campaigns/<id>/lease.json inside the shared root:
//
//	{"owner":"node-a","epoch":3,"expires_unix_nano":…,"renewed_unix_nano":…}
//
// Invariants the protocol maintains without any lock service:
//
//   - At most one live owner. A fresh lease is written to a temp file
//     and hard-linked into place (link(2) fails when the name exists,
//     so the filesystem arbitrates races, and the file never appears
//     half-written). An expired lease is stolen under a steal lock
//     (lease.json.steal, created the same exclusive way, so exactly
//     one contender moves the old file aside): the holder re-reads the
//     lease, renames it to a tombstone (lease.json.stolen.<epoch>) and
//     then creates the new lease exclusively.
//
//   - The fencing epoch is monotonic across owners, crashes included.
//     A steal writes epoch = old+1. Tombstones persist until a higher
//     epoch is safely on disk, so even a crash between the
//     tombstone-rename and the new-lease create cannot reset the
//     epoch: the next acquirer resumes from max(tombstone epochs)+1.
//
//   - A stale owner cannot clobber a successor. Owners fence their
//     checkpoint-class writes with FenceCheck (owner+epoch must still
//     match the lease file); renewal refuses to resurrect an expired
//     lease, and re-reads after writing to detect a concurrent steal.
//
// Expiry compares against the local wall clock, so cross-machine use
// assumes clock skew well under the TTL (the usual lease caveat;
// DESIGN.md §14 lists it in the failure matrix).

// LeaseFileName is the lease file inside a campaign directory.
const LeaseFileName = "lease.json"

// Sentinel lease errors.
var (
	// ErrHeld: another owner holds a live lease.
	ErrHeld = errors.New("cluster: lease held by another owner")
	// ErrLost: we no longer own the lease (stolen or released).
	ErrLost = errors.New("cluster: lease lost")
)

// LeaseInfo is the on-disk lease record.
type LeaseInfo struct {
	Owner           string `json:"owner"`
	Epoch           uint64 `json:"epoch"`
	ExpiresUnixNano int64  `json:"expires_unix_nano"`
	RenewedUnixNano int64  `json:"renewed_unix_nano"`
}

// Expired reports whether the lease is past its TTL at time now.
func (li *LeaseInfo) Expired(now time.Time) bool {
	return now.UnixNano() > li.ExpiresUnixNano
}

// Lease is one held lease. Its fields are immutable except Epoch-stable
// expiry bookkeeping inside the manager; users treat it as a token.
type Lease struct {
	Path  string
	Owner string
	Epoch uint64
}

// LeaseManager acquires, renews, and releases leases on behalf of one
// owner ID. It is safe for concurrent use.
type LeaseManager struct {
	owner string
	ttl   time.Duration

	mu   sync.Mutex
	held map[string]*Lease // by path
}

// NewLeaseManager returns a manager owning leases as owner with the
// given TTL (minimum 50ms).
func NewLeaseManager(owner string, ttl time.Duration) *LeaseManager {
	if ttl < 50*time.Millisecond {
		ttl = 50 * time.Millisecond
	}
	return &LeaseManager{owner: owner, ttl: ttl, held: make(map[string]*Lease)}
}

// Owner returns the manager's owner ID.
func (m *LeaseManager) Owner() string { return m.owner }

// TTL returns the lease TTL.
func (m *LeaseManager) TTL() time.Duration { return m.ttl }

// Held returns the leases currently held, sorted by path.
func (m *LeaseManager) Held() []*Lease {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Lease, 0, len(m.held))
	for _, l := range m.held {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// ReadLease reads and parses the lease file at path. Returns
// (nil, nil) when no lease file exists; a corrupt file returns an
// error (callers treat it as a crashed create, i.e. stealable).
func ReadLease(path string) (*LeaseInfo, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: lease read: %w", err)
	}
	li := &LeaseInfo{}
	if err := json.Unmarshal(data, li); err != nil {
		return nil, fmt.Errorf("cluster: lease parse: %w", err)
	}
	if li.Owner == "" || li.Epoch == 0 {
		return nil, fmt.Errorf("cluster: lease at %s has no owner/epoch", path)
	}
	return li, nil
}

// tombName is the tombstone of the lease at path for epoch.
func tombName(path string, epoch uint64) string {
	return fmt.Sprintf("%s.stolen.%d", path, epoch)
}

// tombEpoch parses the epoch out of a tombstone file name
// (lease.json.stolen.<epoch>), returning 0 for foreign names.
func tombEpoch(name string) uint64 {
	i := strings.LastIndexByte(name, '.')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseUint(name[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// maxTombstoneEpoch scans the lease's directory for steal/release
// tombstones and returns the highest epoch recorded in one (0 when
// none). Tombstones are how epoch monotonicity survives a crash
// between "old lease removed" and "new lease created".
func maxTombstoneEpoch(path string) uint64 {
	des, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return 0
	}
	prefix := filepath.Base(path) + ".stolen."
	var max uint64
	for _, de := range des {
		if strings.HasPrefix(de.Name(), prefix) {
			if e := tombEpoch(de.Name()); e > max {
				max = e
			}
		}
	}
	return max
}

// clearTombstones removes tombstones with epoch < have — safe once a
// lease file carrying `have` is durably in place.
func clearTombstones(path string, have uint64) {
	des, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return
	}
	prefix := filepath.Base(path) + ".stolen."
	for _, de := range des {
		if strings.HasPrefix(de.Name(), prefix) && tombEpoch(de.Name()) < have {
			os.Remove(filepath.Join(filepath.Dir(path), de.Name()))
		}
	}
}

// createExclusive writes a brand-new lease file at path — the atomic
// arbiter for fresh acquisitions. The record is written and fsynced to
// a temp file first and then hard-linked into place: link(2) fails with
// EEXIST when path exists, exactly like O_CREATE|O_EXCL, but the lease
// appears with its full contents, so a concurrent Acquire never reads a
// half-written (empty) file and mistakes it for a crashed create.
func (m *LeaseManager) createExclusive(path string, epoch uint64) error {
	now := time.Now()
	data, err := json.Marshal(&LeaseInfo{
		Owner:           m.owner,
		Epoch:           epoch,
		ExpiresUnixNano: now.Add(m.ttl).UnixNano(),
		RenewedUnixNano: now.UnixNano(),
	})
	if err != nil {
		return fmt.Errorf("cluster: lease create: %w", err)
	}
	tmp, err := writeTemp(path, data)
	if err != nil {
		return fmt.Errorf("cluster: lease create: %w", err)
	}
	defer os.Remove(tmp)
	return os.Link(tmp, path)
}

// Acquire takes the lease at path (creating its directory if needed):
// a missing lease is created, our own live lease is renewed, an
// expired or corrupt one is stolen with epoch+1, and a live foreign
// one returns ErrHeld. Exactly one of N concurrent acquirers wins.
func (m *LeaseManager) Acquire(path string) (*Lease, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("cluster: lease dir: %w", err)
	}
	for attempt := 0; attempt < 16; attempt++ {
		li, err := ReadLease(path)
		switch {
		case err == nil && li == nil:
			// No lease: create fresh, resuming the epoch line from any
			// tombstone a crashed steal/release left behind.
			epoch := maxTombstoneEpoch(path) + 1
			if cerr := m.createExclusive(path, epoch); cerr != nil {
				if os.IsExist(cerr) {
					continue // lost the create race; re-read
				}
				return nil, cerr
			}
			clearTombstones(path, epoch)
			return m.adopt(path, epoch), nil

		case err == nil && li.Owner == m.owner && !li.Expired(time.Now()):
			// Already ours (e.g. re-acquire after a partial release):
			// renew in place, keeping the epoch.
			l := m.adopt(path, li.Epoch)
			if rerr := m.Renew(l); rerr != nil {
				m.forget(l)
				continue
			}
			return l, nil

		case err == nil && !li.Expired(time.Now()):
			return nil, fmt.Errorf("%w (owner %s, epoch %d)", ErrHeld, li.Owner, li.Epoch)

		default:
			// Expired, or unreadable (a crashed create that never
			// fenced anything): steal, under the steal lock, so exactly
			// one contender moves the old file aside. A lock past its
			// own expiry was left by a stealer that crashed.
			lock := path + ".steal"
			if cerr := m.createExclusive(lock, 1); cerr != nil {
				if !os.IsExist(cerr) {
					return nil, cerr
				}
				if ll, lerr := ReadLease(lock); lerr != nil || ll != nil && ll.Expired(time.Now()) {
					os.Remove(lock)
				}
				continue
			}
			l, serr := m.stealLocked(path, li)
			os.Remove(lock)
			if serr != nil {
				return nil, serr
			}
			if l != nil {
				return l, nil
			}
		}
	}
	return nil, fmt.Errorf("%w (acquire retry budget exhausted)", ErrHeld)
}

// stealLocked moves the lease judged stealable (li; nil when corrupt)
// to its tombstone and creates the successor at the next epoch. The
// caller holds the steal lock. A nil lease with a nil error means the
// file changed since it was judged stealable, or a fresh acquirer won
// the create: the caller re-reads.
func (m *LeaseManager) stealLocked(path string, li *LeaseInfo) (*Lease, error) {
	cur, err := ReadLease(path)
	if !(li == nil && err != nil || li != nil && cur != nil &&
		cur.Owner == li.Owner && cur.Epoch == li.Epoch && cur.Expired(time.Now())) {
		return nil, nil
	}
	var oldEpoch uint64
	if li != nil {
		oldEpoch = li.Epoch
	}
	if t := maxTombstoneEpoch(path); t > oldEpoch {
		oldEpoch = t
	}
	if err := os.Rename(path, tombName(path, oldEpoch)); err != nil {
		return nil, nil // released under us; re-read
	}
	if err := m.createExclusive(path, oldEpoch+1); err != nil {
		if os.IsExist(err) {
			return nil, nil // a fresh acquirer slipped in after our rename
		}
		return nil, err
	}
	clearTombstones(path, oldEpoch+1)
	return m.adopt(path, oldEpoch+1), nil
}

// adopt registers a held lease.
func (m *LeaseManager) adopt(path string, epoch uint64) *Lease {
	l := &Lease{Path: path, Owner: m.owner, Epoch: epoch}
	m.mu.Lock()
	m.held[path] = l
	m.mu.Unlock()
	return l
}

// forget drops a lease from the held set.
func (m *LeaseManager) forget(l *Lease) {
	m.mu.Lock()
	if m.held[l.Path] == l {
		delete(m.held, l.Path)
	}
	m.mu.Unlock()
}

// Renew extends a held lease by the TTL. It refuses to resurrect an
// already-expired lease (a stealer may be mid-dance) and verifies the
// write landed, returning ErrLost when ownership is gone either way.
func (m *LeaseManager) Renew(l *Lease) error {
	li, err := ReadLease(l.Path)
	if err != nil || li == nil || li.Owner != m.owner || li.Epoch != l.Epoch {
		m.forget(l)
		return fmt.Errorf("%w (renew: lease file changed)", ErrLost)
	}
	now := time.Now()
	if li.Expired(now) {
		m.forget(l)
		return fmt.Errorf("%w (renew: lease expired before renewal)", ErrLost)
	}
	li.ExpiresUnixNano = now.Add(m.ttl).UnixNano()
	li.RenewedUnixNano = now.UnixNano()
	if err := writeLeaseAtomic(l.Path, li); err != nil {
		return err
	}
	// Verify: a stealer that renamed the file away in the window would
	// have been clobbered by our rename — re-read and make sure the
	// file is still (again) ours so at worst the steal repeats.
	back, err := ReadLease(l.Path)
	if err != nil || back == nil || back.Owner != m.owner || back.Epoch != l.Epoch {
		m.forget(l)
		return fmt.Errorf("%w (renew: lost verification re-read)", ErrLost)
	}
	return nil
}

// Release gives the lease up, leaving a tombstone so the next owner
// continues the epoch line. Releasing a lease we no longer hold is a
// no-op.
func (m *LeaseManager) Release(l *Lease) error {
	m.forget(l)
	li, err := ReadLease(l.Path)
	if err != nil || li == nil || li.Owner != m.owner || li.Epoch != l.Epoch {
		return nil // already stolen or gone: nothing to release
	}
	if err := os.Rename(l.Path, tombName(l.Path, l.Epoch)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cluster: lease release: %w", err)
	}
	return nil
}

// FenceCheck returns a fencing predicate for (path, owner, epoch):
// nil while the lease file still names that exact owner and epoch,
// an error otherwise. Wired into store.Store.SetFence it makes every
// checkpoint-class write of a stale owner fail instead of clobbering
// the successor (the check runs immediately before the write's
// rename, so the vulnerable window is the rename itself — and even
// then determinism makes a genuine-but-stale checkpoint a valid
// resume point, see DESIGN.md §14 failure matrix).
func FenceCheck(path, owner string, epoch uint64) func() error {
	return func() error {
		li, err := ReadLease(path)
		if err != nil {
			return fmt.Errorf("cluster: fence: %w", err)
		}
		if li == nil {
			return fmt.Errorf("cluster: fence: lease gone (owner %s epoch %d)", owner, epoch)
		}
		if li.Owner != owner || li.Epoch != epoch {
			return fmt.Errorf("cluster: fence: stale owner %s epoch %d (current %s epoch %d)",
				owner, epoch, li.Owner, li.Epoch)
		}
		return nil
	}
}

// Fence returns the fencing predicate for a held lease.
func (m *LeaseManager) Fence(l *Lease) func() error {
	return FenceCheck(l.Path, l.Owner, l.Epoch)
}

// writeLeaseAtomic replaces the lease file via tmp+rename (renewals
// only; creations go through createExclusive).
func writeLeaseAtomic(path string, li *LeaseInfo) error {
	data, err := json.Marshal(li)
	if err != nil {
		return fmt.Errorf("cluster: lease encode: %w", err)
	}
	tmp, err := writeTemp(path, data)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: lease write: %w", err)
	}
	return nil
}

// writeTemp writes data to a fresh fsynced temp file next to path and
// returns its name ("" on a create failure); on other failures the temp
// file is removed.
func writeTemp(path string, data []byte) (string, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}
