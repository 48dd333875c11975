package vulngen

import (
	"fmt"
	"strings"
	"testing"

	"protego/internal/exploits"
	"protego/internal/kernel"
	"protego/internal/world"
)

// Two generators with the same seed must emit identical scenario
// sequences — the property the CI smoke's fixed seed rests on — and the
// shapes must rotate round-robin so a sweep covers all of them evenly.
func TestGeneratorDeterminism(t *testing.T) {
	a, b := NewGenerator(42), NewGenerator(42)
	for i := 0; i < 25; i++ {
		sa, sb := a.Scenario(), b.Scenario()
		if sa.Encode() != sb.Encode() {
			t.Fatalf("scenario %d diverged:\n%s\nvs\n%s", i, sa.Encode(), sb.Encode())
		}
		if want := Shape(i % int(shapeCount)); sa.Shape != want {
			t.Fatalf("scenario %d: shape %s, want %s (round-robin)", i, sa.Shape, want)
		}
	}
	if c := NewGenerator(43); c.Scenario().Encode() == NewGenerator(42).Scenario().Encode() &&
		c.Scenario().Encode() == func() string { g := NewGenerator(42); g.Scenario(); return g.Scenario().Encode() }() {
		t.Fatalf("different seeds produced identical first two scenarios")
	}
}

func TestScenarioEncodeDecodeRoundTrip(t *testing.T) {
	g := NewGenerator(7)
	for i := 0; i < 20; i++ {
		sc := g.Scenario()
		got, err := DecodeScenario(sc.Encode())
		if err != nil {
			t.Fatalf("decode scenario %d: %v\n%s", i, err, sc.Encode())
		}
		if got.Encode() != sc.Encode() {
			t.Fatalf("round trip %d:\n%s\nvs\n%s", i, sc.Encode(), got.Encode())
		}
	}
	if _, err := DecodeScenario("shape no-such-shape\n"); err == nil {
		t.Fatalf("unknown shape decoded")
	}
	if _, err := DecodeScenario("shape fstab-writable\nmut no-such-op 0\n"); err == nil {
		t.Fatalf("unknown mut op decoded")
	}
	if _, err := DecodeScenario("mut sync-policy 0\n"); err == nil {
		t.Fatalf("scenario without shape line decoded")
	}
}

// The tentpole smoke: generate environments from a fixed seed and replay
// the per-class CVE representatives inside each. Every baseline must
// escalate and every Protego image must contain, modulo the environments'
// own policy concessions.
func TestSweepSmoke(t *testing.T) {
	envs := 2 * int(shapeCount)
	if testing.Short() {
		envs = int(shapeCount)
	}
	stats, err := Sweep(1, envs, exploits.ClassRepresentatives(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Environments != envs {
		t.Fatalf("environments = %d, want %d", stats.Environments, envs)
	}
	if want := envs * len(exploits.ClassRepresentatives()); stats.Replays != want {
		t.Fatalf("replays = %d, want %d", stats.Replays, want)
	}
	// Two of every five environments (fstab-writable shapes) concede the
	// payload's mount by their own poisoned-but-synced whitelist.
	if stats.Concessions == 0 {
		t.Fatalf("no concessions: the fstab-writable shape's poisoned row should authorize the payload mount")
	}
	for _, f := range stats.Failures {
		t.Errorf("%s", f)
	}
}

// Planted-vulnerability self-test (the difffuzz idiom): with the mount
// whitelist check broken, a non-conceding environment must catch the
// payload's mount landing on Protego, and ddmin must reduce the scenario
// to a single mutation (the break does not depend on the environment, so
// the minimal reproducer is as small as the shrinker can emit).
func TestBreakMountPolicyCaughtAndShrunk(t *testing.T) {
	corpus := exploits.ClassRepresentatives()[:1]
	sc := Scenario{Shape: ShapeAliasCycle, Muts: []Mut{
		{Op: MutAliasCycle},
		{Op: MutChmodConfig, A: 0},
		{Op: MutFstabRow, A: 1},
		{Op: MutSyncPolicy},
	}}
	cfg := Config{BreakMountPolicy: true}
	res, err := ReplayScenario(sc, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failing() {
		t.Fatalf("broken mount policy not detected")
	}
	found := false
	for _, p := range res.Problems {
		if strings.Contains(p, exploits.ActionMountEtc) || strings.Contains(p, "mount-whitelist") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no mount-related problem reported: %v", res.Problems)
	}

	shrunk := ShrinkScenario(sc, corpus, cfg)
	if len(shrunk.Muts) != 1 {
		t.Fatalf("shrunk to %d muts, want 1:\n%s", len(shrunk.Muts), shrunk.Encode())
	}
	// The minimal scenario still fails, and its Encode text is what a
	// report would embed.
	re, err := ReplayScenario(shrunk, corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Failing() {
		t.Fatalf("shrunk scenario no longer fails:\n%s", shrunk.Encode())
	}
}

// A standing-invariant breach left behind by a replay is reported through
// difffuzz's checker, prefixed with the CVE id.
func TestEvalReplayReportsInvariantWithCVE(t *testing.T) {
	snap, err := world.Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	proM, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	leaked := proM.K.Fork(proM.Init) // a root task the payload left alive
	cve := exploits.Corpus[0]
	res := &EnvResult{}
	evalReplay(cve, &exploits.Result{Fired: true, Escalated: true},
		&exploits.Result{Fired: true, EUID: world.UIDBob}, envFacts{}, proM, res)
	want := fmt.Sprintf("%s: invariant no-unauthorized-priv: task pid=%d holds euid=0 caps=", cve.ID, leaked.PID())
	if len(res.Problems) != 1 || !strings.HasPrefix(res.Problems[0], want) {
		t.Fatalf("problems = %q, want one starting %q", res.Problems, want)
	}
}

// Per-shape environment semantics, each replayed on the full canonical
// scenario against the class representatives.
func TestShapeSemantics(t *testing.T) {
	corpus := exploits.ClassRepresentatives()[:1]
	g := NewGenerator(0)
	for shape := Shape(0); shape < shapeCount; shape++ {
		sc := Scenario{Shape: shape, Muts: g.canonical(shape)}
		res, err := ReplayScenario(sc, corpus, Config{})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if res.Failing() {
			t.Errorf("%s: %s", shape, res)
		}
	}
}
