package profiler

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protego/internal/core"
	"protego/internal/kernel"
	"protego/internal/seccomp"
	"protego/internal/seccomp/profiles"
	"protego/internal/userspace"
	"protego/internal/world"
)

var update = flag.Bool("update", false, "regenerate the committed golden profiles")

// TestGoldenProfilesUpToDate is the CI drift gate: it relearns both
// images' profiles from the corpus and compares byte-for-byte against the
// committed goldens, so any behavior change that moves a utility's
// syscall footprint shows up as a reviewable JSON diff. Regenerate with:
//
//	go test ./internal/seccomp/profiler -run TestGoldenProfilesUpToDate -args -update
func TestGoldenProfilesUpToDate(t *testing.T) {
	lin, pro, err := Learn()
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	for _, c := range []struct {
		mode kernel.Mode
		set  *seccomp.ProfileSet
		file string
	}{
		{kernel.ModeLinux, lin, "linux.json"},
		{kernel.ModeProtego, pro, "protego.json"},
	} {
		data, err := c.set.Encode()
		if err != nil {
			t.Fatalf("encode %s: %v", c.mode, err)
		}
		if *update {
			path := filepath.Join("..", "profiles", c.file)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatalf("write %s: %v", path, err)
			}
			t.Logf("wrote %s (%d binaries, machine profile %d syscalls)",
				path, len(c.set.Binaries()), c.set.Machine.Len())
			continue
		}
		if !bytes.Equal(data, profiles.Raw(c.mode)) {
			t.Errorf("%s profile drifted from committed golden %s;\n"+
				"regenerate with: go test ./internal/seccomp/profiler -run TestGoldenProfilesUpToDate -args -update\n"+
				"and review the diff", c.mode, c.file)
		}
	}
}

// TestLearnDeterminism proves the profiler's core property: the same
// corpus yields byte-identical profiles, run to run. Without it the drift
// gate would flake instead of gating.
func TestLearnDeterminism(t *testing.T) {
	lin1, pro1, err := Learn()
	if err != nil {
		t.Fatalf("Learn #1: %v", err)
	}
	lin2, pro2, err := Learn()
	if err != nil {
		t.Fatalf("Learn #2: %v", err)
	}
	for _, c := range []struct {
		name string
		a, b *seccomp.ProfileSet
	}{{"linux", lin1, lin2}, {"protego", pro1, pro2}} {
		da, err := c.a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		db, err := c.b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%s: two Learn runs over the same corpus produced different profiles", c.name)
		}
	}
}

// TestGoldenProfileCoversSuGrant runs the setuid-time su grant under the
// committed Protego profiles, enforcing. With no sudoers rule to root,
// alice gives root's password to sudo and to su, and the command must run
// with root's uid, gid and groups, as the baseline su's does. No
// equivalence scenario reaches sudo's su grant (the baseline sudo refuses
// it), so the learned profiles cover it only because the kernel, not the
// utility, sets the target's groups.
func TestGoldenProfileCoversSuGrant(t *testing.T) {
	set, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode kernel.Mode, argv []string, arm bool) string {
		t.Helper()
		snap, err := world.Golden(mode)
		if err != nil {
			t.Fatal(err)
		}
		m, err := snap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			m.InstallSeccomp(set, false)
			root, err := m.Session("root")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.K.WriteFile(root, core.ProcDelegation, []byte("root ALL = (ALL) ALL\n")); err != nil {
				t.Fatal(err)
			}
		}
		alice, err := m.Session("alice")
		if err != nil {
			t.Fatal(err)
		}
		code, out, errOut, err := m.Run(alice, argv, world.AnswerWith(world.RootPassword))
		if err != nil || code != 0 {
			t.Fatalf("%s %v: code=%d err=%v stderr=%q", mode, argv, code, err, errOut)
		}
		return out
	}
	su := []string{userspace.BinSu, "root", "-c", userspace.BinID}
	want := run(kernel.ModeLinux, su, false)
	if !strings.HasPrefix(want, "uid=0 euid=0 gid=0 egid=0 ") {
		t.Fatalf("baseline su: %q", want)
	}
	for _, argv := range [][]string{{userspace.BinSudo, userspace.BinID}, su} {
		if got := run(kernel.ModeProtego, argv, true); got != want {
			t.Errorf("%v under the golden profile: %q, want %q", argv, got, want)
		}
	}
}
