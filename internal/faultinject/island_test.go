package faultinject

import (
	"testing"
	"time"
)

// TestIslandHooks covers the supervision-facing hooks: rates 0 and 1,
// count accuracy, and the default hang delay.
func TestIslandHooks(t *testing.T) {
	never := New(1, Options{})
	for i := 0; i < 100; i++ {
		if never.IslandCrash() {
			t.Fatal("island-crash fired at rate 0")
		}
		if _, ok := never.IslandHang(); ok {
			t.Fatal("island-hang fired at rate 0")
		}
		if never.StoreIO() {
			t.Fatal("store-io fired at rate 0")
		}
	}
	if c := never.Counts(); c != (Counts{}) {
		t.Fatalf("rate-0 injector counted fires: %+v", c)
	}

	always := New(1, Options{IslandCrashRate: 1, IslandHangRate: 1, StoreIORate: 1,
		IslandHangDelay: 7 * time.Millisecond})
	for i := 0; i < 10; i++ {
		if !always.IslandCrash() || !always.StoreIO() {
			t.Fatal("rate-1 hook did not fire")
		}
		d, ok := always.IslandHang()
		if !ok || d != 7*time.Millisecond {
			t.Fatalf("island-hang = (%v, %v), want (7ms, true)", d, ok)
		}
	}
	c := always.Counts()
	if c.IslandCrash != 10 || c.IslandHang != 10 || c.StoreIO != 10 {
		t.Fatalf("counts = %+v, want 10 of each island fault", c)
	}
}

func TestIslandHangDefaultDelay(t *testing.T) {
	in := New(3, Options{IslandHangRate: 1})
	if d, ok := in.IslandHang(); !ok || d != DefaultHangDelay {
		t.Fatalf("default hang delay = (%v, %v), want (%v, true)", d, ok, DefaultHangDelay)
	}
}

// TestIslandHooksNilSafe: every supervision hook must be callable on a
// nil injector — unsupervised schedulers pass one through unconditionally.
func TestIslandHooksNilSafe(t *testing.T) {
	var in *Injector
	if in.IslandCrash() {
		t.Error("nil IslandCrash fired")
	}
	if _, ok := in.IslandHang(); ok {
		t.Error("nil IslandHang fired")
	}
	if in.StoreIO() {
		t.Error("nil StoreIO fired")
	}
	in.KillAtRound(1) // must not kill or panic
	if in.Child(4) != nil {
		t.Error("nil Child not nil")
	}
	if in.Opts() != (Options{}) {
		t.Error("nil Opts not zero")
	}
}

// TestIslandChildIndependence: children derived for parallel islands
// must see fault sequences that differ from each other and reproduce
// exactly for the same (seed, id).
func TestIslandChildIndependence(t *testing.T) {
	parent := New(9, Options{IslandCrashRate: 0.5})
	seq := func(in *Injector, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = in.IslandCrash()
		}
		return out
	}
	c1, c2 := parent.Child(1), parent.Child(2)
	a1 := seq(c1, 64)
	a2 := seq(New(9, Options{IslandCrashRate: 0.5}).Child(1), 64)
	b := seq(c2, 64)
	same, diff := true, false
	for i := range a1 {
		same = same && a1[i] == a2[i]
		diff = diff || a1[i] != b[i]
	}
	if !same {
		t.Error("Child(1) fault sequence not reproducible")
	}
	if !diff {
		t.Error("Child(1) and Child(2) drew identical fault sequences")
	}
	// Child fires land in the child's counters and roll up into the
	// parent's, so the parent reports every fault its children fired.
	n1, n2 := c1.Counts().IslandCrash, c2.Counts().IslandCrash
	if n1 == 0 || n2 == 0 {
		t.Fatalf("children fired %d and %d times at rate 0.5", n1, n2)
	}
	if c := parent.Counts(); c.IslandCrash != n1+n2 {
		t.Errorf("parent counted %d child fires, want %d+%d", c.IslandCrash, n1, n2)
	}
}

func TestParseSpecSupervision(t *testing.T) {
	in, err := ParseSpec("island-crash=0.1, island-hang=0.2:50ms, store-io=0.05, kill-round=3", 7)
	if err != nil {
		t.Fatal(err)
	}
	o := in.Opts()
	if o.IslandCrashRate != 0.1 || o.IslandHangRate != 0.2 ||
		o.IslandHangDelay != 50*time.Millisecond || o.StoreIORate != 0.05 || o.KillRound != 3 {
		t.Fatalf("parsed opts = %+v", o)
	}
	if in, err := ParseSpec("island-hang=1", 7); err != nil || in.Opts().IslandHangDelay != DefaultHangDelay {
		t.Fatalf("bare island-hang: err=%v opts=%+v", err, in.Opts())
	}
	for _, bad := range []string{
		"island-crash=0.1:5ms", // takes no magnitude
		"store-io=0.1:5",       // takes no magnitude
		"island-hang=0.1:bogus",
		"kill-round=0",
		"kill-round=-2",
		"kill-round=nope",
	} {
		if _, err := ParseSpec(bad, 7); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
