package service

// Memory tests: a finished or cancelled campaign must not pin its Handle
// (executor, solver caches, state pool) for the daemon's lifetime, on the
// local pool or on a slice worker.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"pbse/internal/cluster"
	"pbse/internal/store"
)

// liveHeap returns the heap in use after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedCampaignsFreeTheirHandles runs campaigns one after another
// on one daemon and checks that the post-GC heap does not grow with
// their number: every finished campaign has dropped its handle. The
// campaigns share a spec, so the shared verdict cache stops growing
// after the first; what remains per campaign is its registry record and
// event history, a few KB against the several MB a retained handle
// costs.
func TestFinishedCampaignsFreeTheirHandles(t *testing.T) {
	svc, err := Open(t.TempDir(), testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	run := func() {
		t.Helper()
		info, err := svc.Submit(Spec{Driver: "readelf", Budget: tinyBudget})
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc.WaitTerminal(context.Background(), info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st != StatusDone {
			t.Fatalf("campaign %s ended %s", info.ID, st)
		}
	}
	// two warm-up campaigns fill the shared cache and the lazily built
	// package state (target programs, expression tables)
	run()
	run()
	base := liveHeap()
	const n = 6
	for i := 0; i < n; i++ {
		run()
	}
	after := liveHeap()

	svc.mu.Lock()
	for id, c := range svc.camps {
		if c.handle != nil {
			t.Errorf("finished campaign %s still holds its handle", id)
		}
	}
	svc.mu.Unlock()

	var perCampaign uint64
	if after > base {
		perCampaign = (after - base) / n
	}
	t.Logf("post-GC heap %d KB after 2 campaigns, %d KB after %d more (%d KB per campaign)",
		base>>10, after>>10, n, perCampaign>>10)
	const limit = 512 << 10
	if perCampaign > limit {
		t.Errorf("post-GC heap grows %d KB per finished campaign, want at most %d KB", perCampaign>>10, limit>>10)
	}
}

// TestCancelledCampaignsFreeTheirHandles drives slices by hand on a
// daemon with no pool workers and cancels two campaigns after their
// first slice: one while it waits in the queue (checkpointed), one while
// its next slice is granted and running. Both must drop their handle.
func TestCancelledCampaignsFreeTheirHandles(t *testing.T) {
	svc, err := Open(t.TempDir(), testConfig(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	// firstSlice submits a campaign, runs its first slice and checks it
	// is checkpointed with a live handle.
	firstSlice := func() *Campaign {
		t.Helper()
		info, err := svc.Submit(Spec{Driver: "readelf", Budget: tinyBudget})
		if err != nil {
			t.Fatal(err)
		}
		c := svc.next()
		if c == nil || c.ID != info.ID {
			t.Fatalf("granted %v, want campaign %s", c, info.ID)
		}
		svc.runSlice(c)
		svc.mu.Lock()
		defer svc.mu.Unlock()
		if c.status != StatusCheckpointed || c.handle == nil {
			t.Fatalf("after one slice: status %s, handle %v; want a checkpointed campaign with a handle",
				c.status, c.handle != nil)
		}
		return c
	}
	handleOf := func(c *Campaign) bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return c.handle != nil
	}

	queued := firstSlice()
	if st, err := svc.Cancel(queued.ID); err != nil || st != StatusCancelled {
		t.Fatalf("cancel checkpointed campaign: %s, %v", st, err)
	}
	if handleOf(queued) {
		t.Error("campaign cancelled while checkpointed still holds its handle")
	}

	running := firstSlice()
	if c := svc.next(); c != running {
		t.Fatalf("granted %v, want campaign %s", c, running.ID)
	}
	if st, err := svc.Cancel(running.ID); err != nil || st != StatusRunning {
		t.Fatalf("cancel running campaign: %s, %v", st, err)
	}
	svc.runSlice(running)
	if st, err := svc.WaitTerminal(context.Background(), running.ID); err != nil || st != StatusCancelled {
		t.Fatalf("campaign cancelled mid-slice ended %s (%v)", st, err)
	}
	if handleOf(running) {
		t.Error("campaign cancelled mid-slice still holds its handle")
	}
}

// TestSliceExecForgetsFinishedCampaigns: a slice worker drops its cached
// handle once a slice finishes the campaign, and also after a failed
// slice.
func TestSliceExecForgetsFinishedCampaigns(t *testing.T) {
	dir := t.TempDir()
	cfg := testClusterConfig(-1, "coord")
	cfg.Cluster.Dispatch = cluster.DispatchOptions{WorkerTTL: 10 * time.Minute}
	svc, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	wroot, err := store.OpenRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	sx := NewSliceExec(wroot, Config{Logf: func(string, ...any) {}})
	cached := func() int {
		sx.mu.Lock()
		defer sx.mu.Unlock()
		return len(sx.handles)
	}
	w := &cluster.Worker{ID: "w1", Exec: sx.Exec, Concurrency: 1}
	ws := httptest.NewServer(w.Handler())
	defer ws.Close()
	if _, err := svc.Registry().Join("w1", ws.URL, 1); err != nil {
		t.Fatal(err)
	}

	info, err := svc.Submit(Spec{Driver: "readelf", Budget: tinyBudget})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if st, err := svc.WaitTerminal(ctx, info.ID); err != nil || st != StatusDone {
		t.Fatalf("dispatched campaign ended %s (%v)", st, err)
	}
	if n, _ := w.Executed(); n < 2 {
		t.Fatalf("worker executed %d slices, want a multi-slice campaign", n)
	}
	if n := cached(); n != 0 {
		t.Errorf("slice worker still caches %d handles after the campaign's last slice", n)
	}

	// A failed slice: no lease backs this owner, so the first checkpoint
	// write is fenced off and the slice reports an error.
	spec, err := json.Marshal(Spec{Driver: "readelf", Budget: tinyBudget})
	if err != nil {
		t.Fatal(err)
	}
	res := sx.Exec(cluster.SliceRequest{Campaign: "orphan", Rounds: 1, Owner: "nobody", Epoch: 1, Spec: spec})
	if res.Error == "" {
		t.Fatalf("unfenced slice succeeded: %+v", res)
	}
	if n := cached(); n != 0 {
		t.Errorf("slice worker caches %d handles after a failed slice", n)
	}
}
