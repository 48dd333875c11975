package trace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"protego/internal/errno"
)

// newRing makes a ring with at least the requested capacity.
func newRing(capacity int) *ring {
	r := &ring{}
	r.init(capacity)
	return r
}

func TestRingCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {4096, 4096},
	}
	for _, c := range cases {
		if got := newRing(c.in).Cap(); got != c.want {
			t.Errorf("newRing(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

// appendAudit appends one audit record carrying msg.
func appendAudit(r *ring, msg string) {
	rec := record{kind: KindAudit, time: Now()}
	r.append(&rec, rec.withText(textMsg, msg))
}

func TestRingOverwriteOldest(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		appendAudit(r, fmt.Sprint("m", i))
	}
	if r.Emitted() != 10 {
		t.Fatalf("Emitted = %d, want 10", r.Emitted())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.snapshot(allKinds)
	if len(evs) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(evs))
	}
	// Oldest retained event is seq 6; sequence must be dense and ordered,
	// and each slot's text must be its own event's.
	for i, ev := range evs {
		if ev.Seq != uint64(6+i) || ev.Msg != fmt.Sprint("m", 6+i) {
			t.Errorf("Snapshot[%d] = seq %d msg %q, want %d m%d", i, ev.Seq, ev.Msg, 6+i, 6+i)
		}
	}
}

func TestRingSnapshotBeforeWrap(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 3; i++ {
		appendAudit(r, "")
	}
	if got := len(r.snapshot(allKinds)); got != 3 {
		t.Fatalf("Snapshot len = %d, want 3", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

// TestRingConcurrentWriters is the satellite concurrency property: parallel
// writers must not corrupt the cursor or lose more events than the drop
// counter accounts for. Run with -race.
func TestRingConcurrentWriters(t *testing.T) {
	const (
		writers   = 8
		perWriter = 5000
	)
	r := newRing(1024)
	getpid := Intern("getpid")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Every third event carries text, so writers also race
				// to make the chunks' side arrays.
				rec := record{kind: KindSyscallExit, name: getpid, pid: int32(w), time: Now()}
				text := ""
				if i%3 == 0 {
					text = rec.withText(textErr, "boom")
				}
				r.append(&rec, text)
			}
		}(w)
	}
	// Concurrent readers exercise the torn-slot path.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.snapshot(allKinds)
			}
		}
	}()
	wg.Wait()
	close(done)

	if got := r.Emitted(); got != writers*perWriter {
		t.Fatalf("Emitted = %d, want %d (cursor corrupted)", got, writers*perWriter)
	}
	// After writers quiesce the identity retained == emitted - dropped
	// holds exactly.
	evs := r.snapshot(allKinds)
	want := r.Emitted() - r.Dropped()
	if uint64(len(evs)) != want {
		t.Fatalf("retained %d events, want emitted-dropped = %d", len(evs), want)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("snapshot not dense at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{100, 200, 400, 800, 1600} {
		h.Observe(d * time.Nanosecond)
	}
	s := h.Stats()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.MeanNs != 620 {
		t.Fatalf("MeanNs = %v, want 620", s.MeanNs)
	}
	if s.MaxNs != 1600 {
		t.Fatalf("MaxNs = %d, want 1600", s.MaxNs)
	}
	// p50 lands in the bucket of 400ns ([256,512)).
	if s.P50Ns < 256 || s.P50Ns >= 512 {
		t.Fatalf("P50Ns = %v, want within [256,512)", s.P50Ns)
	}
	// p99 lands in the bucket of 1600ns ([1024,2048)).
	if s.P99Ns < 1024 || s.P99Ns >= 2048 {
		t.Fatalf("P99Ns = %v, want within [1024,2048)", s.P99Ns)
	}
	if s.Sparkline() == "" {
		t.Fatal("Sparkline empty for non-empty histogram")
	}
}

func TestHistogramZeroAndOverflow(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(time.Duration(1) << 62)
	s := h.Stats()
	if s.Buckets[0] != 1 {
		t.Errorf("zero duration not in bucket 0")
	}
	if s.Buckets[histBuckets-1] != 1 {
		t.Errorf("huge duration not in overflow bucket")
	}
}

func TestTracerSyscallRoundTrip(t *testing.T) {
	tr := New(64)
	tok := tr.SyscallEnter("open", 42, 1000)
	tr.SyscallExit(tok, errors.New("EACCES"))

	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(evs))
	}
	if evs[0].Kind != KindSyscallEnter || evs[1].Kind != KindSyscallExit {
		t.Fatalf("kinds = %v %v", evs[0].Kind, evs[1].Kind)
	}
	if evs[1].Err != "EACCES" {
		t.Fatalf("exit Err = %q", evs[1].Err)
	}
	if evs[1].PID != 42 || evs[1].UID != 1000 {
		t.Fatalf("exit pid/uid = %d/%d", evs[1].PID, evs[1].UID)
	}
	if got := tr.Histograms()["syscall:open"].Count; got != 1 {
		t.Fatalf(`Histograms()["syscall:open"].Count = %d, want 1`, got)
	}
	if tr.HookHistogram("never-called").Count != 0 {
		t.Fatal("an unknown name should report zero stats")
	}

	// Once its histogram and the ring's chunks exist, a by-name
	// enter/exit pair allocates nothing and records exactly its two
	// events. This is what is deterministic about the tracer's cost per
	// simulated syscall; the time itself is the benchmark's
	// trace.syscall_pair_ns.
	t.Run("by-name-pair", func(t *testing.T) {
		pair := func() { tr.SyscallExit(tr.SyscallEnter("getpid", 1, 1000), nil) }
		for i := 0; i < tr.ring.Cap(); i++ {
			pair()
		}
		if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
			t.Errorf("one enter/exit pair allocates %v times, want 0", allocs)
		}
		before := tr.Stats()
		pair()
		after := tr.Stats()
		for _, k := range []Kind{KindSyscallEnter, KindSyscallExit} {
			if got := after.ByKind[k.String()] - before.ByKind[k.String()]; got != 1 {
				t.Errorf("one pair recorded %d %s events, want 1", got, k)
			}
		}
		if got := after.Emitted - before.Emitted; got != 2 {
			t.Errorf("one pair put %d events on the ring, want 2", got)
		}
	})
}

func TestTracerCountersAndStats(t *testing.T) {
	tr := New(64)
	var hook HistogramRef
	tr.HookDecision(&hook, Intern("MountCheck"), 1, 1000, Intern("grant"), Intern("protego"), nil, Now()-time.Microsecond)
	tr.CountDecisionRef(nil, Intern("MountCheck"), Intern("protego"), Intern("grant"))
	tr.CountDecisionRef(nil, Intern("MountCheck"), Intern("protego"), Intern("grant"))
	tr.CountDecisionRef(nil, Intern("MountCheck"), Intern("apparmor"), Intern("no-opinion"))
	tr.NetfilterVerdictRef(nil, Intern("OUTPUT"), Intern("drop-unpriv-raw-tcp"), Intern("DROP"), 1000)
	tr.AuthCheckRef(nil, "password", "alice", 7, 1000, false)
	tr.Audit("mount denied")

	ctrs := tr.Counters()
	if ctrs[CounterKey{"MountCheck", "protego", "grant"}] != 2 {
		t.Fatalf("counter = %d, want 2", ctrs[CounterKey{"MountCheck", "protego", "grant"}])
	}
	s := tr.Stats()
	if s.Emitted != 4 {
		t.Fatalf("Emitted = %d, want 4", s.Emitted)
	}
	if s.ByKind["lsm"] != 1 || s.ByKind["netfilter"] != 1 || s.ByKind["auth"] != 1 || s.ByKind["audit"] != 1 {
		t.Fatalf("ByKind = %v", s.ByKind)
	}

	out := tr.RenderStats()
	for _, want := range []string{"ring: capacity=64", "lsm:MountCheck", "decision counters:", "drop-unpriv-raw-tcp"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderStats missing %q:\n%s", want, out)
		}
	}
	if got := tr.RenderEvents(2); strings.Count(got, "\n") != 2 {
		t.Errorf("RenderEvents(2) returned %q", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tok := tr.SyscallEnter("open", 1, 2)
	tr.SyscallExit(tok, nil)
	tr.HookDecision(nil, Intern("MountCheck"), 1, 2, Intern("deny"), 0, nil, 0)
	tr.CountDecisionRef(nil, Intern("h"), Intern("m"), Intern("d"))
	tr.NetfilterVerdictRef(nil, Intern("OUTPUT"), 0, Intern("ACCEPT"), 0)
	tr.MonitordSync("mounts", 0, nil)
	tr.AuthCheckRef(nil, "password", "alice", 1, 2, true)
	tr.FaultInject("sys.open", "err", errno.EIO, 1)
	tr.Audit("x")
}

func TestSnapshotKindFiltering(t *testing.T) {
	tr := New(64)
	tr.Audit("one")
	tr.SyscallExit(tr.SyscallEnter("open", 1, 2), nil)
	tr.Audit("two")
	audits := tr.SnapshotKind(KindAudit)
	if len(audits) != 2 || audits[0].Msg != "one" || audits[1].Msg != "two" {
		t.Fatalf("SnapshotKind(audit) = %+v", audits)
	}
}

func TestTracerConcurrentMixedUse(t *testing.T) {
	tr := New(256)
	var hook HistogramRef
	fileOpen, noOpinion := Intern("FileOpen"), Intern("no-opinion")
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				switch i % 4 {
				case 0:
					tr.SyscallExit(tr.SyscallEnter("getpid", w, w), nil)
				case 1:
					tr.HookDecision(&hook, fileOpen, w, w, noOpinion, 0, nil, Now())
				case 2:
					tr.CountDecisionRef(nil, fileOpen, Intern("apparmor"), noOpinion)
				case 3:
					// Writers intern rule names concurrently with
					// snapshots decoding them.
					if i%8 == 3 {
						tr.Audit("line")
					} else {
						tr.NetfilterVerdictRef(nil, Intern("OUTPUT"), Intern(fmt.Sprint("mixed-rule-", w, "-", i%16)), Intern("DROP"), w)
					}
				}
				if i%512 == 0 {
					tr.Snapshot()
					tr.Histograms()
					tr.Counters()
					tr.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Histograms()["syscall:getpid"].Count != 6*500 {
		t.Fatalf("getpid histogram count = %d, want %d", tr.Histograms()["syscall:getpid"].Count, 6*500)
	}
	for _, ev := range tr.SnapshotKind(KindNetfilterVerdict) {
		if ev.Name != "OUTPUT" || !strings.HasPrefix(ev.Module, "mixed-rule-") || ev.Decision != "DROP" {
			t.Fatalf("netfilter event decoded as %+v", ev)
		}
	}
}

// BenchmarkEmission measures the cost the trace layer adds to one simulated
// syscall (an enter/exit pair plus the histogram observation). The
// acceptance bar is < 1µs per event pair.
func BenchmarkEmission(b *testing.B) {
	tr := New(DefaultCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SyscallExit(tr.SyscallEnter("getpid", 1, 1000), nil)
	}
}

// BenchmarkEmissionParallel exercises contended emission.
func BenchmarkEmissionParallel(b *testing.B) {
	tr := New(DefaultCapacity)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.SyscallExit(tr.SyscallEnter("getpid", 1, 1000), nil)
		}
	})
}

// BenchmarkRingAppend isolates the ring's append path.
func BenchmarkRingAppend(b *testing.B) {
	r := newRing(DefaultCapacity)
	x := Intern("x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.append(&record{kind: KindAudit, name: x}, "")
	}
}

// TestShardedCountersExact checks that the sharded decision counters
// lose no increments under parallel writers: N goroutines bumping the
// same key and disjoint keys must merge to exact totals, and existing
// slots must survive the copy-on-write publication of new keys.
func TestShardedCountersExact(t *testing.T) {
	tr := New(64)
	const (
		writers = 8
		bumps   = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := fmt.Sprintf("writer-%d", w)
			for i := 0; i < bumps; i++ {
				tr.CountDecisionRef(nil, Intern("Shared"), Intern("module"), Intern("grant"))
				tr.CountDecisionRef(nil, Intern("Private"), Intern(own), Intern("grant"))
				if i%100 == 0 {
					// New keys force COW snapshot publication mid-run.
					tr.CountDecisionRef(nil, Intern("Churn"), Intern(own), Intern(fmt.Sprintf("d%d", i)))
				}
			}
		}()
	}
	wg.Wait()
	ctrs := tr.Counters()
	shared := CounterKey{Hook: "Shared", Module: "module", Decision: "grant"}
	if ctrs[shared] != writers*bumps {
		t.Fatalf("shared counter = %d, want %d", ctrs[shared], writers*bumps)
	}
	for w := 0; w < writers; w++ {
		key := CounterKey{Hook: "Private", Module: fmt.Sprintf("writer-%d", w), Decision: "grant"}
		if ctrs[key] != bumps {
			t.Fatalf("%v = %d, want %d", key, ctrs[key], bumps)
		}
	}
}
