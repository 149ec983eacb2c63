package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// Lease contention wall (ISSUE 10 satellite): races have exactly one
// winner, expired leases are stolen with a bumped epoch, fencing
// rejects a stale owner, heartbeats keep a slow slice alive, and
// epoch monotonicity survives release/steal churn.

func leasePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaigns", "c000001", LeaseFileName)
}

// TestLeaseAcquireRace races many managers (distinct owners, one
// path, fresh file) and requires exactly one winner, everyone else
// ErrHeld.
func TestLeaseAcquireRace(t *testing.T) {
	path := leasePath(t)
	const racers = 16
	var wg sync.WaitGroup
	wins := make([]bool, racers)
	errs := make([]error, racers)
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		i := i
		m := NewLeaseManager(stringsRepeat("node", i), time.Minute)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := m.Acquire(path)
			if err == nil {
				wins[i] = true
			} else {
				errs[i] = err
			}
		}()
	}
	close(start)
	wg.Wait()
	winners := 0
	for i := range wins {
		if wins[i] {
			winners++
		} else if !errors.Is(errs[i], ErrHeld) {
			t.Errorf("racer %d lost with unexpected error: %v", i, errs[i])
		}
	}
	if winners != 1 {
		t.Fatalf("acquire race had %d winners, want exactly 1", winners)
	}
	li, err := ReadLease(path)
	if err != nil || li == nil {
		t.Fatalf("no lease on disk after the race: %v", err)
	}
	if li.Epoch != 1 {
		t.Errorf("fresh lease epoch %d, want 1", li.Epoch)
	}
}

func stringsRepeat(base string, i int) string {
	return base + string(rune('a'+i))
}

// TestLeaseStealRace: an expired lease is stolen by exactly one of
// many contenders, and the steal bumps the fencing epoch.
func TestLeaseStealRace(t *testing.T) {
	path := leasePath(t)
	old := NewLeaseManager("old-owner", 50*time.Millisecond)
	l, err := old.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 1 {
		t.Fatalf("first lease epoch %d", l.Epoch)
	}
	time.Sleep(80 * time.Millisecond) // let it expire

	const racers = 8
	var wg sync.WaitGroup
	winners := make([]*Lease, racers)
	errs := make([]error, racers)
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		i := i
		m := NewLeaseManager(stringsRepeat("stealer", i), time.Minute)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			winners[i], errs[i] = m.Acquire(path)
		}()
	}
	close(start)
	wg.Wait()
	won := 0
	for i := range winners {
		if winners[i] != nil {
			won++
			if winners[i].Epoch != 2 {
				t.Errorf("stolen lease epoch %d, want 2", winners[i].Epoch)
			}
		} else if !errors.Is(errs[i], ErrHeld) {
			t.Errorf("stealer %d lost with unexpected error: %v", i, errs[i])
		}
	}
	if won != 1 {
		t.Fatalf("steal race had %d winners, want exactly 1", won)
	}
	// The old owner's renewal must now fail with ErrLost.
	if err := old.Renew(l); !errors.Is(err, ErrLost) {
		t.Errorf("stale owner renewed after steal: %v", err)
	}
}

// TestLeaseFencingRejectsStaleOwner: after a steal, the old owner's
// fence fails while the new owner's passes — the predicate the store
// runs before checkpoint/manifest/job writes.
func TestLeaseFencingRejectsStaleOwner(t *testing.T) {
	path := leasePath(t)
	old := NewLeaseManager("old-owner", 50*time.Millisecond)
	oldLease, err := old.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	oldFence := old.Fence(oldLease)
	if err := oldFence(); err != nil {
		t.Fatalf("live owner's fence failed: %v", err)
	}

	time.Sleep(80 * time.Millisecond)
	thief := NewLeaseManager("new-owner", time.Minute)
	newLease, err := thief.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := oldFence(); err == nil {
		t.Fatal("stale owner's fence passed after the lease was stolen")
	} else if !strings.Contains(err.Error(), "stale owner") {
		t.Errorf("stale fence error %q does not identify the stale owner", err)
	}
	if err := thief.Fence(newLease)(); err != nil {
		t.Errorf("successor's fence failed: %v", err)
	}
}

// TestLeaseHeartbeatKeepsAlive: a slice outliving the TTL stays owned
// as long as renewals keep coming, and a contender polling the whole
// time never gets in. The TTL is wide enough that a scheduler stall of
// a few hundred milliseconds (a loaded machine running other test
// packages) between two renewals cannot let the lease lapse.
func TestLeaseHeartbeatKeepsAlive(t *testing.T) {
	const ttl = 400 * time.Millisecond
	path := leasePath(t)
	owner := NewLeaseManager("owner", ttl)
	l, err := owner.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	contender := NewLeaseManager("contender", ttl)
	stop := make(chan struct{})
	var contenderWon bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := contender.Acquire(path); err == nil {
				contenderWon = true
				return
			}
		}
	}()
	// "Slow slice": hold the lease 3× the TTL, renewing at TTL/8.
	deadline := time.Now().Add(3 * ttl)
	for time.Now().Before(deadline) {
		if err := owner.Renew(l); err != nil {
			t.Fatalf("renewal failed while heartbeating: %v", err)
		}
		time.Sleep(ttl / 8)
	}
	close(stop)
	wg.Wait()
	if contenderWon {
		t.Fatal("contender stole a lease that was being heartbeated")
	}
	if err := owner.Fence(l)(); err != nil {
		t.Errorf("owner's fence failed after heartbeating: %v", err)
	}
}

// TestLeaseEpochMonotonicAcrossChurn: acquire→release→acquire→expire→
// steal never reuses an epoch, including when the lease file vanishes
// in between (tombstones carry the line forward).
func TestLeaseEpochMonotonicAcrossChurn(t *testing.T) {
	path := leasePath(t)
	var last uint64
	for i := 0; i < 3; i++ {
		m := NewLeaseManager(stringsRepeat("owner", i), time.Minute)
		l, err := m.Acquire(path)
		if err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
		if l.Epoch <= last {
			t.Fatalf("churn %d: epoch %d did not advance past %d", i, l.Epoch, last)
		}
		last = l.Epoch
		if err := m.Release(l); err != nil {
			t.Fatalf("churn %d release: %v", i, err)
		}
		if li, _ := ReadLease(path); li != nil {
			t.Fatalf("churn %d: lease file survived release", i)
		}
	}
	// Crash-shaped churn: corrupt lease file (torn create) is stolen,
	// and the epoch still advances.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewLeaseManager("after-crash", time.Minute)
	l, err := m.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch <= last {
		t.Fatalf("post-corruption epoch %d did not advance past %d", l.Epoch, last)
	}
	// Released-then-reacquired by the same owner keeps working.
	if err := m.Renew(l); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseReacquireOwn: acquiring a lease we already hold renews it
// in place with the same epoch.
func TestLeaseReacquireOwn(t *testing.T) {
	path := leasePath(t)
	m := NewLeaseManager("self", time.Minute)
	l1, err := m.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := m.Acquire(path)
	if err != nil {
		t.Fatalf("re-acquiring our own live lease failed: %v", err)
	}
	if l2.Epoch != l1.Epoch {
		t.Errorf("re-acquire changed epoch %d → %d", l1.Epoch, l2.Epoch)
	}
	if got := len(m.Held()); got != 1 {
		t.Errorf("held %d leases, want 1", got)
	}
}
