package trace

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestFastpathCounterRegistryReadsLazily(t *testing.T) {
	tr := New(16)
	var n atomic.Uint64
	tr.RegisterAtomic("dcache.hit", &n)
	n.Store(7)
	if got := tr.FastpathCounters()["dcache.hit"]; got != 7 {
		t.Fatalf("dcache.hit = %d, want 7 (must read at snapshot time)", got)
	}
	n.Add(3)
	if got := tr.FastpathCounters()["dcache.hit"]; got != 10 {
		t.Fatalf("dcache.hit = %d, want 10", got)
	}
}

func TestFastpathCounterReplaceAndNilSafety(t *testing.T) {
	tr := New(16)
	var one, two atomic.Uint64
	one.Store(1)
	two.Store(2)
	tr.RegisterAtomic("x", &one)
	tr.RegisterAtomic("x", &two)
	if got := tr.FastpathCounters()["x"]; got != 2 {
		t.Fatalf("x = %d, want 2 (re-registration replaces the counter)", got)
	}
	var nilTr *Tracer
	nilTr.RegisterAtomic("x", &one)
	if m := nilTr.FastpathCounters(); m != nil {
		t.Fatalf("nil tracer FastpathCounters = %v, want nil", m)
	}
	tr.RegisterAtomic("nil-counter", nil) // must not panic at read time
	_ = tr.FastpathCounters()
}

func TestRenderStatsFastpathSection(t *testing.T) {
	tr := New(16)
	out := tr.RenderStats()
	if strings.Contains(out, "fastpath counters:") {
		t.Fatal("empty registry must not render a fastpath section")
	}
	var hit, miss, mountHit atomic.Uint64
	hit.Store(9)
	miss.Store(1)
	mountHit.Store(5)
	tr.RegisterAtomic("dcache.hit", &hit)
	tr.RegisterAtomic("dcache.miss", &miss)
	tr.RegisterAtomic("mountidx.hit", &mountHit)
	out = tr.RenderStats()
	for _, want := range []string{
		"fastpath counters:", "dcache.hit", "dcache.miss", "mountidx.hit",
		"dcache.hit_ratio", "0.9000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderStats missing %q:\n%s", want, out)
		}
	}
}
