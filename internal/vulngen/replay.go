package vulngen

import (
	"fmt"

	"protego/internal/difffuzz"
	"protego/internal/exploits"
	"protego/internal/kernel"
	"protego/internal/vfs"
	"protego/internal/world"
)

// Config selects replay options.
type Config struct {
	// BreakMountPolicy flips the core-module test hook that grants every
	// unprivileged mount on each Protego clone. Replays with this set
	// MUST fail; it is the planted vulnerability the shrinker self-test
	// reduces against (the difffuzz idiom).
	BreakMountPolicy bool
}

// EnvResult is the outcome of replaying a CVE corpus inside one generated
// environment.
type EnvResult struct {
	Scenario Scenario
	// Replays is the number of CVEs replayed (each on a fresh
	// baseline/Protego clone pair).
	Replays int
	// Concessions counts payload actions that succeeded on Protego
	// because the generated environment's own policy authorized them
	// (e.g. the attacker-authored fstab whitelist row) — contained by
	// policy, not a containment failure.
	Concessions int
	// Problems are the containment failures: uncontained Protego
	// escalations, invariant violations, unexplained baseline
	// non-escalations, stale-policy leaks, refused concessions.
	Problems []string
}

// Failing reports whether the environment found a bug.
func (r *EnvResult) Failing() bool { return len(r.Problems) > 0 }

func (r *EnvResult) String() string {
	if !r.Failing() {
		return fmt.Sprintf("ok: %s (%d replays, %d concessions)", r.Scenario, r.Replays, r.Concessions)
	}
	s := fmt.Sprintf("FAILED: %s:", r.Scenario)
	for _, p := range r.Problems {
		s += "\n  " + p
	}
	return s
}

// envFacts is what the generated environment's Protego policy genuinely
// authorizes the attacker to do — the per-action containment expectations
// derive from it, keyed to exactly the strings the payload records.
type envFacts struct {
	shadowReadable  bool // DAC lets bob read /etc/shadow
	passwdWritable  bool // DAC lets bob write /etc/passwd
	shWritable      bool // DAC lets bob write /bin/sh
	mountConcession bool // in-kernel whitelist matches the payload's mount triple
}

func computeFacts(pro *world.Machine) envFacts {
	can := func(path string, want int) bool {
		ino, err := pro.K.FS.Lookup(vfs.RootCred, path)
		if err != nil {
			return false
		}
		return vfs.CheckAccess(bobCred, ino, want) == nil
	}
	return envFacts{
		shadowReadable:  can("/etc/shadow", vfs.MayRead),
		passwdWritable:  can("/etc/passwd", vfs.MayWrite),
		shWritable:      can("/bin/sh", vfs.MayWrite),
		mountConcession: whitelistsPayloadMount(pro),
	}
}

// whitelistsPayloadMount reports whether the Protego in-kernel mount
// whitelist currently authorizes the exploit payload's mount triple.
func whitelistsPayloadMount(pro *world.Machine) bool {
	if pro.Protego == nil {
		return false
	}
	row := pro.Protego.MountRow(exploits.PayloadMountDevice, exploits.PayloadMountPoint)
	return row != nil && row.PermitsUserMount(exploits.PayloadMountFSType, nil)
}

// expectedOnProtego is the per-action containment expectation: true means
// the environment itself (DAC or synced policy) authorizes the action, so
// payload success there is a concession; everything else must fail.
func expectedOnProtego(f envFacts, action string) bool {
	switch action {
	case exploits.ActionReadShadow:
		return f.shadowReadable
	case exploits.ActionAppendPasswd:
		return f.passwdWritable
	case exploits.ActionRootkit:
		return f.shWritable
	case exploits.ActionMountEtc:
		return f.mountConcession
	default:
		// bind 53, raw send, setuid(0): no generated misconfiguration
		// grants these (delegation mutations stay command-restricted, so
		// a deferred transition confers nothing by itself).
		return false
	}
}

// ReplayScenario builds the scenario's environment on a fresh golden
// baseline/Protego pair, runs the shape-level assertions, then replays
// every CVE of the corpus on clone pairs stamped from the mutated
// machines, collecting containment problems.
func ReplayScenario(sc Scenario, corpus []exploits.CVE, cfg Config) (*EnvResult, error) {
	res := &EnvResult{Scenario: sc}
	lin, err := exploits.NewMachine(kernel.ModeLinux)
	if err != nil {
		return nil, err
	}
	pro, err := exploits.NewMachine(kernel.ModeProtego)
	if err != nil {
		return nil, err
	}
	if err := Apply(lin, sc); err != nil {
		return nil, err
	}
	if err := Apply(pro, sc); err != nil {
		return nil, err
	}
	facts := computeFacts(pro)
	checkShape(sc, lin, pro, facts, res)

	// The mutated machines become the environment's golden pair: every
	// CVE replays on a fresh clone, so a successful attack (baseline
	// mount over /etc, a rootkitted /bin/sh) never bleeds into the next
	// replay's world.
	linSnap, proSnap := lin.Snapshot(), pro.Snapshot()
	for _, cve := range corpus {
		linM, err := linSnap.Clone()
		if err != nil {
			return nil, err
		}
		proM, err := proSnap.Clone()
		if err != nil {
			return nil, err
		}
		if cfg.BreakMountPolicy && proM.Protego != nil {
			proM.Protego.TestHookBreakMountPolicy(true)
		}
		linRes, err := exploits.RunCVEOn(linM, cve)
		if err != nil {
			return nil, fmt.Errorf("vulngen: %s baseline: %w", cve.ID, err)
		}
		proRes, err := exploits.RunCVEOn(proM, cve)
		if err != nil {
			return nil, fmt.Errorf("vulngen: %s protego: %w", cve.ID, err)
		}
		res.Replays++
		evalReplay(cve, linRes, proRes, facts, proM, res)
	}
	return res, nil
}

// evalReplay turns one CVE's result pair into problems/concessions.
func evalReplay(cve exploits.CVE, linRes, proRes *exploits.Result, facts envFacts, proM *world.Machine, res *EnvResult) {
	prob := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: ", cve.ID)+fmt.Sprintf(format, args...))
	}
	switch {
	case !linRes.Fired:
		prob("baseline payload did not fire")
	case !linRes.Escalated:
		prob("baseline did not escalate (unexplained)")
	}
	if !proRes.Fired {
		prob("protego payload did not fire")
		return
	}
	if proRes.EUID == 0 {
		prob("protego payload ran with euid 0")
	}
	if !proRes.Caps.IsEmpty() {
		prob("protego payload held capabilities %v", proRes.Caps)
	}
	for _, a := range proRes.Attempts {
		want := expectedOnProtego(facts, a.Action)
		switch {
		case a.Succeeded && !want:
			prob("uncontained: %s succeeded on protego", a.Action)
		case !a.Succeeded && want:
			prob("expected concession refused: %s failed (%s)", a.Action, a.Err)
		case a.Succeeded:
			res.Concessions++
		}
	}
	for _, v := range difffuzz.CheckInvariants(proM) {
		prob("invariant %s: %s", v.Invariant, v.Detail)
	}
}

// checkShape runs the environment-level assertions of the scenario's
// misconfiguration family, before any CVE replays.
func checkShape(sc Scenario, lin, pro *world.Machine, facts envFacts, res *EnvResult) {
	switch sc.Shape {
	case ShapeFstabWritable:
		// The whole point of the shape: the attacker-authored row made it
		// into the kernel, so the payload's mount is a policy concession.
		if !facts.mountConcession {
			res.Problems = append(res.Problems,
				"shape fstab-writable: poisoned row did not reach the in-kernel whitelist")
		}
	case ShapeStalePolicy:
		// The daemon crashed before the poisoning; keep-last-good must
		// have pinned the pre-crash whitelist.
		if facts.mountConcession {
			res.Problems = append(res.Problems,
				"shape stale-policy: poisoned fstab row leaked into the in-kernel whitelist past a crashed monitord")
		}
	case ShapeAliasCycle:
		if pro.Protego != nil {
			checkAliasCycle(pro, res)
		}
	case ShapeSetuidDebris:
		for _, mu := range sc.Muts {
			if mu.Op != MutSetuidDebris {
				continue
			}
			path := pick(debrisPool, mu.A)
			if euid, err := probeDebris(lin, path); err != nil {
				res.Problems = append(res.Problems,
					fmt.Sprintf("shape setuid-debris: baseline exec of %s: %v", path, err))
			} else if euid != 0 {
				res.Problems = append(res.Problems, fmt.Sprintf(
					"shape setuid-debris: baseline debris %s did not escalate (euid=%d)", path, euid))
			}
			if euid, err := probeDebris(pro, path); err != nil {
				res.Problems = append(res.Problems,
					fmt.Sprintf("shape setuid-debris: protego exec of %s: %v", path, err))
			} else if euid == 0 {
				res.Problems = append(res.Problems, fmt.Sprintf(
					"shape setuid-debris: protego exec of %s handed out root", path))
			}
		}
	}
}

// checkAliasCycle looks up through the synced alias cycle on the Protego
// policy. Parsing expands no alias, so only a lookup that walks the cycle
// shows a broken cycle guard (the historical failure was unbounded
// recursion). Wheel member charlie must reach /usr/bin/id through
// VG_CYC_B, and the cycle must grant nothing it does not list.
func checkAliasCycle(pro *world.Machine, res *EnvResult) {
	s := pro.Protego.Sudoers()
	if s == nil {
		res.Problems = append(res.Problems,
			"shape alias-cycle: delegation policy vanished after the cycle sync")
		return
	}
	groups, err := pro.DB.GroupNamesOf("charlie")
	if err != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("shape alias-cycle: groups of charlie: %v", err))
		return
	}
	if _, ok := s.LookupCommand("charlie", groups, "root", "/usr/bin/id"); !ok {
		res.Problems = append(res.Problems,
			"shape alias-cycle: /usr/bin/id lost through the cycle for wheel member charlie")
	}
	if _, ok := s.LookupCommand("charlie", groups, "root", "/bin/sh"); ok {
		res.Problems = append(res.Problems,
			"shape alias-cycle: the cycle granted charlie an unlisted /bin/sh")
	}
}

// probeDebris forks a child of a bob session, execs the debris binary,
// and reports the credentials exec left on the child — the exact move an
// attacker who found the leftover file would make.
func probeDebris(m *world.Machine, path string) (euid int, err error) {
	bob, err := m.Session("bob")
	if err != nil {
		return -1, err
	}
	defer m.K.Exit(bob, 0)
	child := m.K.Fork(bob)
	defer m.K.Exit(child, 0)
	if _, err := m.K.Exec(child, path, []string{path}, nil); err != nil {
		return -1, err
	}
	return child.EUID(), nil
}

// SweepStats aggregates a generated-environment sweep.
type SweepStats struct {
	Seed         int64
	Environments int
	Replays      int
	Concessions  int
	// Failures are the failing environments, in generation order. The
	// caller shrinks them (ShrinkScenario) before reporting.
	Failures []*EnvResult
}

// Sweep generates envs environments from the seed and replays the corpus
// inside each.
func Sweep(seed int64, envs int, corpus []exploits.CVE, cfg Config) (*SweepStats, error) {
	gen := NewGenerator(seed)
	stats := &SweepStats{Seed: seed}
	for i := 0; i < envs; i++ {
		sc := gen.Scenario()
		res, err := ReplayScenario(sc, corpus, cfg)
		if err != nil {
			return nil, fmt.Errorf("vulngen: env %d (%s): %w", i, sc.Shape, err)
		}
		stats.Environments++
		stats.Replays += res.Replays
		stats.Concessions += res.Concessions
		if res.Failing() {
			stats.Failures = append(stats.Failures, res)
		}
	}
	return stats, nil
}

// ShrinkScenario ddmin-reduces a failing scenario's mutation list to a
// minimal sequence that still fails, reusing difffuzz's generic shrinker.
// Replays build fresh clone pairs per check, so the predicate is
// deterministic and the result replays exactly.
func ShrinkScenario(sc Scenario, corpus []exploits.CVE, cfg Config) Scenario {
	muts := difffuzz.ShrinkSlice(sc.Muts, func(ms []Mut) bool {
		res, err := ReplayScenario(Scenario{Shape: sc.Shape, Muts: ms}, corpus, cfg)
		return err == nil && res.Failing()
	})
	return Scenario{Shape: sc.Shape, Muts: muts}
}
