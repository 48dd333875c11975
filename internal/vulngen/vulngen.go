// Package vulngen generates vulnerable environments: a seeded fuzzer that
// mutates the machine images' policy and utility configuration into known
// misconfiguration shapes — world-writable fstab entries, sudoers alias
// cycles, setuid debris left by interrupted upgrades, stale in-kernel
// policy after a crashed monitord, dangling delegation rules — and then
// replays the Table-6 CVE corpus inside each generated environment on a
// baseline/Protego golden-snapshot pair. The assertion is the paper's
// central claim under adversarial configuration: the baseline still
// escalates and Protego still contains, except where the generated
// environment's own policy explicitly concedes an action (a whitelist row
// the "administrator" wrote is a concession, not a containment failure).
// Failing environments are ddmin-shrunk (difffuzz.ShrinkSlice) to minimal
// scenarios and committed as testdata regression files.
package vulngen

import (
	"fmt"
	"strconv"
	"strings"
)

// MutOp is one misconfiguration mutation kind.
type MutOp uint8

const (
	// MutChmodConfig makes a pool config file world-writable (the
	// administrator slip every shape builds on).
	MutChmodConfig MutOp = iota
	// MutFstabRow appends a pool fstab row — authored by the attacker
	// (bob) when the file is writable to him, by root otherwise.
	MutFstabRow
	// MutAliasCycle writes a mutually recursive Cmnd_Alias pair into
	// sudoers, attached to a %wheel rule (bob is not in wheel). This is
	// the mutation that found the policy.expand unbounded-recursion crash.
	MutAliasCycle
	// MutDanglingRule appends a NOPASSWD delegation rule for a binary
	// that does not exist (the "ModeledBy" leftover of a removed package).
	MutDanglingRule
	// MutSetuidDebris drops a root-owned shell copy left by an
	// interrupted upgrade: setuid on the baseline image (its packages
	// carry the bit), plain 0755 on Protego (its packages never did).
	MutSetuidDebris
	// MutCrashMonitord arms the faultinject crashed-monitord plan: every
	// later config read by the daemon fails, so no re-sync can land.
	MutCrashMonitord
	// MutSyncPolicy asks monitord for a full re-sync, tolerating failure
	// (bounded-retry keep-last-good is exactly what is under test).
	MutSyncPolicy

	mutOpCount
)

var mutOpNames = [mutOpCount]string{
	"chmod-config", "fstab-row", "alias-cycle", "dangling-rule",
	"setuid-debris", "crash-monitord", "sync-policy",
}

func (o MutOp) String() string {
	if int(o) < len(mutOpNames) {
		return mutOpNames[o]
	}
	return fmt.Sprintf("MutOp(%d)", uint8(o))
}

// Mut is one mutation step. A selects from the op's pool, reduced modulo
// the pool size at apply time, so every byte decodes to an applicable
// mutation and shrinking a field never produces an invalid scenario (the
// difffuzz trace-grammar property).
type Mut struct {
	Op MutOp
	A  uint8
}

// Shape names the misconfiguration family a scenario instantiates; it
// selects which environment-level containment assertions run on top of
// the per-CVE ones.
type Shape uint8

const (
	// ShapeFstabWritable: fstab goes world-writable, the attacker writes
	// himself a whitelist row, the daemon syncs it. The mount the payload
	// then performs is a policy concession — contained BY POLICY, so the
	// row must be in the in-kernel whitelist when the mount lands.
	ShapeFstabWritable Shape = iota
	// ShapeStalePolicy: monitord crashes before the attacker poisons
	// fstab; the attempted re-sync must fail (keep-last-good) and the
	// poisoned row must never reach the in-kernel whitelist.
	ShapeStalePolicy
	// ShapeAliasCycle: mutually recursive command aliases in sudoers.
	// A delegation lookup that walks the cycle must terminate
	// (regression: unbounded recursion) and bob must gain no transition.
	ShapeAliasCycle
	// ShapeDanglingDelegation: a NOPASSWD rule whose command no longer
	// exists. The deferred setuid-on-exec must confer nothing.
	ShapeDanglingDelegation
	// ShapeSetuidDebris: an interrupted upgrade left a root-owned shell
	// copy behind. On the baseline it carries the setuid bit and hands
	// out root; on Protego the bit never existed and exec stays at the
	// caller's credentials.
	ShapeSetuidDebris

	shapeCount
)

var shapeNames = [shapeCount]string{
	"fstab-writable", "stale-policy", "alias-cycle",
	"dangling-delegation", "setuid-debris",
}

func (s Shape) String() string {
	if int(s) < len(shapeNames) {
		return shapeNames[s]
	}
	return fmt.Sprintf("Shape(%d)", uint8(s))
}

// Scenario is one generated environment: a shape plus the mutation
// sequence that builds it (canonical muts plus generator noise).
type Scenario struct {
	Shape Shape
	Muts  []Mut
}

// Mutation pools. Selectors index these modulo length.

// configPool are the policy/utility config files MutChmodConfig can relax.
var configPool = []string{"/etc/fstab", "/etc/sudoers", "/etc/bind"}

const (
	cfgFstab   = 0 // configPool index of /etc/fstab
	cfgSudoers = 1 // configPool index of /etc/sudoers
)

// fstabRowPool are the rows MutFstabRow appends. Index 0 is the poison
// row: a user-mountable whitelist entry matching exactly the exploit
// payload's mount triple (exploits.PayloadMount*). The rest are benign
// user-mountable rows for generator noise.
var fstabRowPool = []string{
	"evil       /etc         ext4  rw,user,noauto  0 0",
	"/dev/sdd1  /mnt/backup  ext4  rw,user,noauto  0 0",
	"/dev/sde1  /media/usb   vfat  rw,users,noauto 0 0",
}

const rowPoison = 0 // fstabRowPool index of the /etc takeover row

// ghostPool are the nonexistent binaries MutDanglingRule delegates to.
var ghostPool = []string{
	"/usr/bin/vg-ghost-helper",
	"/usr/sbin/vg-removed-daemon",
	"/usr/lib/vg-upgrade-hook",
}

// debrisPool are the paths MutSetuidDebris drops a root shell copy at.
var debrisPool = []string{
	"/bin/sh.dpkg-old",
	"/usr/bin/sudo.dpkg-tmp",
	"/tmp/sh.upgrade-17",
}

// aliasCycleLines is the sudoers fragment MutAliasCycle appends: two
// mutually recursive command aliases reachable from a %wheel rule. Bob is
// not in wheel, so a correct expansion grants him nothing; an incorrect
// one recurses without bound when a lookup walks the cycle.
const aliasCycleLines = `Cmnd_Alias VG_CYC_A = VG_CYC_B, /bin/ls
Cmnd_Alias VG_CYC_B = VG_CYC_A, /usr/bin/id
%wheel ALL = (root) NOPASSWD: VG_CYC_A
`

func pick(pool []string, sel uint8) string { return pool[int(sel)%len(pool)] }

// Encode renders the scenario in the line-oriented text form committed
// under testdata/. Lines: "shape <name>" then one "mut <op> <A>" per
// mutation; '#' starts a comment.
func (s Scenario) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shape %s\n", s.Shape)
	for _, m := range s.Muts {
		fmt.Fprintf(&b, "mut %s %d\n", m.Op, m.A)
	}
	return b.String()
}

// DecodeScenario parses the Encode text form.
func DecodeScenario(text string) (Scenario, error) {
	var sc Scenario
	sawShape := false
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "shape":
			if len(fields) != 2 {
				return sc, fmt.Errorf("vulngen: line %d: want 'shape <name>'", lineNo+1)
			}
			found := false
			for i, n := range shapeNames {
				if n == fields[1] {
					sc.Shape, found = Shape(i), true
					break
				}
			}
			if !found {
				return sc, fmt.Errorf("vulngen: line %d: unknown shape %q", lineNo+1, fields[1])
			}
			sawShape = true
		case "mut":
			if len(fields) != 3 {
				return sc, fmt.Errorf("vulngen: line %d: want 'mut <op> <A>'", lineNo+1)
			}
			op := MutOp(mutOpCount)
			for i, n := range mutOpNames {
				if n == fields[1] {
					op = MutOp(i)
					break
				}
			}
			if op == mutOpCount {
				return sc, fmt.Errorf("vulngen: line %d: unknown mut op %q", lineNo+1, fields[1])
			}
			a, err := strconv.ParseUint(fields[2], 10, 8)
			if err != nil {
				return sc, fmt.Errorf("vulngen: line %d: selector: %v", lineNo+1, err)
			}
			sc.Muts = append(sc.Muts, Mut{Op: op, A: uint8(a)})
		default:
			return sc, fmt.Errorf("vulngen: line %d: unknown directive %q", lineNo+1, fields[0])
		}
	}
	if !sawShape {
		return sc, fmt.Errorf("vulngen: no shape line")
	}
	return sc, nil
}

// String renders a compact human-readable scenario summary.
func (s Scenario) String() string {
	parts := make([]string, 0, len(s.Muts))
	for _, m := range s.Muts {
		parts = append(parts, fmt.Sprintf("%s(%d)", m.Op, m.A))
	}
	return fmt.Sprintf("%s: %s", s.Shape, strings.Join(parts, " "))
}
