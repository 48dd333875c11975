package difffuzz

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"protego/internal/kernel"
	"protego/internal/seccomp"
	"protego/internal/seccomp/profiles"
	"protego/internal/vfs"
	"protego/internal/world"
)

// runSweep executes n generated traces from the fixed seed under cfg,
// failing the test on the first unexplained divergence or invariant
// violation, and returns the total explained-divergence count.
func runSweep(t *testing.T, seed int64, n int, cfg Config, workers int) int {
	t.Helper()
	gen := NewGenerator(seed)
	traces := make([]Trace, n)
	for i := range traces {
		traces[i] = gen.Next()
	}
	type outcome struct {
		idx int
		res *Result
		err error
	}
	results := make([]outcome, n)
	if workers <= 1 {
		for i, tr := range traces {
			res, err := Run(tr, cfg)
			results[i] = outcome{i, res, err}
		}
	} else {
		// Each worker drives its own machine pairs; this is the
		// lock-sharding ablation — concurrent kernels under -race.
		var wg sync.WaitGroup
		idxCh := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxCh {
					res, err := Run(traces[i], cfg)
					results[i] = outcome{i, res, err}
				}
			}()
		}
		for i := range traces {
			idxCh <- i
		}
		close(idxCh)
		wg.Wait()
	}
	explained := 0
	for _, o := range results {
		if o.err != nil {
			t.Fatalf("trace %d: %v", o.idx, o.err)
		}
		if o.res.Failed() {
			min := Shrink(traces[o.idx], cfg)
			t.Fatalf("trace %d (seed %d): %s\nminimal reproducer (%d steps):\n%s\nreplay literal:\n%s",
				o.idx, seed, o.res, len(min), min, min.GoLiteral())
		}
		explained += o.res.Explained
	}
	return explained
}

// learnedProfiles loads the committed golden profile set for the Protego
// image, which the sweep enforces as a standing audit invariant: no
// utility may ever exceed its learned syscall allowlist.
func learnedProfiles(t *testing.T) *seccomp.ProfileSet {
	t.Helper()
	set, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		t.Fatalf("load golden profiles: %v", err)
	}
	return set
}

// TestDiffFuzz is the deterministic differential sweep: fixed seeds, both
// dcache ablation arms, and a parallel arm that exercises the sharded
// task/lock structures under the race detector. Every arm audits against
// the committed golden seccomp profiles — a syscall outside a binary's
// learned allowlist is an invariant violation and fails the sweep.
func TestDiffFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow under -short")
	}
	audit := learnedProfiles(t)
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	cases := []struct {
		name    string
		seed    int64
		n       int
		cfg     Config
		workers int
	}{
		{"serial/dcache-on", 1, 200, Config{SeccompAudit: audit}, 1},
		{"serial/dcache-off", 2, 60, Config{DcacheOff: true, SeccompAudit: audit}, 1},
		{"parallel/dcache-on", 3, 60, Config{SeccompAudit: audit}, workers},
		{"parallel/dcache-off", 4, 60, Config{DcacheOff: true, SeccompAudit: audit}, workers},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			explained := runSweep(t, tc.seed, tc.n, tc.cfg, tc.workers)
			t.Logf("%d traces, %d explained (by-design) divergences, 0 unexplained, 0 violations",
				tc.n, explained)
		})
	}
}

// TestDiffFuzzDetectsBrokenPolicy proves the harness has teeth: with the
// mount whitelist deliberately disabled via the core test hook, the
// invariant checker must catch the rogue grant within a modest number of
// traces, and the shrinker must reduce the failure to a short reproducer.
func TestDiffFuzzDetectsBrokenPolicy(t *testing.T) {
	cfg := Config{BreakMountPolicy: true}
	gen := NewGenerator(1)
	for i := 0; i < 200; i++ {
		tr := gen.Next()
		res, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Failed() {
			continue
		}
		min := Shrink(tr, cfg)
		if len(min) > 10 {
			t.Fatalf("reproducer did not shrink: %d steps\n%s", len(min), min)
		}
		minRes, err := Run(min, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !minRes.Failed() {
			t.Fatalf("shrunk trace no longer reproduces:\n%s", min)
		}
		t.Logf("broken policy caught on trace %d; shrunk %d -> %d steps: %s\nreplay:\n%s",
			i, len(tr), len(min), minRes, min.GoLiteral())
		// And the same traces must pass with the policy intact, proving
		// the failure is the injected fault rather than harness noise.
		okRes, err := Run(min, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if okRes.Failed() {
			t.Fatalf("reproducer fails even without the broken policy: %s", okRes)
		}
		return
	}
	t.Fatal("broken mount policy was never detected in 200 traces")
}

// TestSeccompAuditDetectsViolation proves the audit invariant has teeth:
// with a deliberately empty profile set every syscall on the Protego
// machine is out of profile, so the very first trace must surface
// seccomp-profile violations (without perturbing execution — audit mode
// records instead of denying, and the trace itself still runs).
func TestSeccompAuditDetectsViolation(t *testing.T) {
	empty := seccomp.NewSet(kernel.ModeProtego.String())
	tr := NewGenerator(1).Next()
	res, err := Run(tr, Config{SeccompAudit: empty})
	if err != nil {
		t.Fatal(err)
	}
	var hits int
	for _, v := range res.Violations {
		if v.Invariant != "seccomp-profile" {
			t.Fatalf("unexpected invariant %q: %+v", v.Invariant, v)
		}
		hits++
	}
	if hits == 0 {
		t.Fatal("empty profile set produced no seccomp-profile violations")
	}
	// The same trace under the learned profiles is violation-free,
	// proving the hits above are the crafted profile, not harness noise.
	res, err = Run(tr, Config{SeccompAudit: learnedProfiles(t)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("trace fails under the learned profiles: %s", res)
	}
}

// TestDigestAgreesWithText: Run compares state digests, so a digest must
// be equal exactly when the FingerprintText rendering it stands for is,
// between the two images after every step and on each image from one
// step to the next.
func TestDigestAgreesWithText(t *testing.T) {
	if testing.Short() {
		t.Skip("agreement sweep is slow under -short")
	}
	type state struct {
		digest world.Digest
		text   string
	}
	stateOf := func(c *machineCtx) state { return state{c.m.Fingerprint(), c.m.FingerprintText()} }
	check := func(what string, a, b state) {
		t.Helper()
		if (a.digest == b.digest) != (a.text == b.text) {
			t.Fatalf("%s: digests equal %v, texts equal %v:\n%s", what, a.digest == b.digest,
				a.text == b.text, world.DiffText(a.text, b.text, "a", "b"))
		}
	}
	gen := NewGenerator(11)
	steps, moved, apart := 0, 0, 0
	for n := 0; n < 500; n++ {
		tr := gen.Next()
		lin, err := newMachineCtx(kernel.ModeLinux, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pro, err := newMachineCtx(kernel.ModeProtego, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := [2]state{stateOf(lin), stateOf(pro)}
		res := &Result{}
		for i, s := range tr {
			execStep(lin, pro, s, res, i)
			cur := [2]state{stateOf(lin), stateOf(pro)}
			check(fmt.Sprintf("trace %d step %d: linux vs protego", n, i), cur[0], cur[1])
			for k, img := range []string{"linux", "protego"} {
				check(fmt.Sprintf("trace %d step %d: %s before vs after", n, i, img), prev[k], cur[k])
				if prev[k].text != cur[k].text {
					moved++
				}
			}
			if cur[0].text != cur[1].text {
				apart++
			}
			prev = cur
			steps++
		}
	}
	t.Logf("%d steps: %d image states changed, %d steps left the images apart", steps, moved, apart)
	if moved == 0 {
		t.Fatal("no step changed any state")
	}
}

// TestFailureReportsShowDifferingLines: Run compares only digests, yet a
// divergence and a fail-closed violation must still report the lines of
// FingerprintText that differ. The file planted here stands in for the
// change a broken image would make.
func TestFailureReportsShowDifferingLines(t *testing.T) {
	plant := func(m *world.Machine) {
		if err := m.K.FS.WriteFile(vfs.RootCred, "/tmp/planted", []byte("x"), 0o644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// alice reads a pool file, then writes /etc/shadow, which both images
	// refuse: a strict step that must leave the state alone.
	tr := Trace{{Op: OpRead, Actor: 0, A: 0}, {Op: OpWrite, Actor: 0, A: 6}}
	const line = "/tmp/planted 100644 0:0 len=1 hash="

	res, err := Run(tr, Config{afterStep: func(step int, _, pro *world.Machine) {
		if step == 1 {
			plant(pro)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Divergence
	if d == nil || d.Step != 1 || !strings.Contains(d.Detail, "\n  protego-only: "+line) {
		t.Fatalf("divergence does not list the planted file: %s", res)
	}

	res, err = Run(tr, Config{afterStep: func(step int, lin, pro *world.Machine) {
		if step == 1 {
			plant(lin)
			plant(pro)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence != nil || len(res.Violations) != 1 {
		t.Fatalf("want one fail-closed violation: %s", res)
	}
	v := res.Violations[0]
	if v.Invariant != "fail-closed" || v.Step != 1 || !strings.Contains(v.Detail, "\n  after:  "+line) ||
		strings.Count(v.Detail, "\n") != 2 {
		t.Fatalf("fail-closed violation does not list just the planted file: %+v", v)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	gen := NewGenerator(42)
	for i := 0; i < 50; i++ {
		tr := gen.Next()
		got := DecodeTrace(tr.Encode())
		if len(got) != len(tr) {
			t.Fatalf("round trip length: got %d want %d", len(got), len(tr))
		}
		for j := range tr {
			if got[j] != tr[j] {
				t.Fatalf("step %d: got %+v want %+v", j, got[j], tr[j])
			}
		}
	}
}

func TestDecodeTraceTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0xff},
		{0xff, 0xff, 0xff, 0xff},       // partial step dropped
		{0xff, 0xff, 0xff, 0xff, 0xff}, // one step, op reduced
		bytes.Repeat([]byte{0xab}, 5*maxTraceLen+37), // overlong, capped
	}
	for _, in := range inputs {
		tr := DecodeTrace(in)
		if len(tr) > maxTraceLen {
			t.Fatalf("decoded %d steps from %d bytes, cap is %d", len(tr), len(in), maxTraceLen)
		}
		for _, s := range tr {
			if int(s.Op) >= int(opCount) {
				t.Fatalf("decoded invalid op %d", s.Op)
			}
		}
	}
}

func TestGoLiteralCompilesShape(t *testing.T) {
	tr := Trace{{Op: OpMount, Actor: 1, A: 2, B: 3, C: 4}}
	want := fmt.Sprintf("difffuzz.Trace{\n\t{Op: difffuzz.OpMount, Actor: 1, A: 2, B: 3, C: 4},\n}")
	if got := tr.GoLiteral(); got != want {
		t.Fatalf("GoLiteral:\n%s\nwant:\n%s", got, want)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	for i := 0; i < 20; i++ {
		ta, tb := a.Next(), b.Next()
		if ta.String() != tb.String() {
			t.Fatalf("same seed diverged at trace %d", i)
		}
	}
}
