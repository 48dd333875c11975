package world

import (
	"fmt"
	"strings"
	"testing"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// fingerprint is both forms of a machine's state fingerprint.
type fingerprint struct {
	digest Digest
	text   string
}

func fingerprintOf(m *Machine) fingerprint {
	return fingerprint{m.Fingerprint(), m.FingerprintText()}
}

// requireSame fails the test unless got matches want in both forms.
func requireSame(t *testing.T, what string, want, got fingerprint) {
	t.Helper()
	if want.digest != got.digest || want.text != got.text {
		t.Fatalf("%s: digests equal %v, texts equal %v:\n%s", what,
			want.digest == got.digest, want.text == got.text, DiffText(want.text, got.text, "want", "got"))
	}
}

// Fresh images must fingerprint identically: every by-design difference
// between the baseline and Protego builds (fragment tree, /proc/protego,
// setuid bits, /dev/ppp perms) has a normalization rule, and this test is
// the canary for a new build-time asymmetry leaking into the serializer.
func TestFingerprintFreshImagesEqual(t *testing.T) {
	lin, err := Build(Options{Mode: kernel.ModeLinux})
	if err != nil {
		t.Fatal(err)
	}
	pro, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "linux vs protego", fingerprintOf(lin), fingerprintOf(pro))
}

// The fingerprint must be stable across repeated serialization of the same
// machine (map iteration anywhere in the pipeline would break shrinking and
// replay) and must actually change when observable state changes. The
// change is made while the inodes are private and only then frozen: no
// digest taken of a private inode may outlive a change to it.
func TestFingerprintDeterministicAndSensitive(t *testing.T) {
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	f1 := fingerprintOf(m)
	requireSame(t, "second call", f1, fingerprintOf(m))
	if err := m.K.FS.WriteFile(vfs.RootCred, "/home/alice/fpnote", []byte("x"), 0o644, UIDAlice, GIDUsers); err != nil {
		t.Fatal(err)
	}
	m.Snapshot()
	if f2 := fingerprintOf(m); f2.digest == f1.digest || f2.text == f1.text {
		t.Fatalf("fingerprint unchanged after VFS write: digests equal %v, texts equal %v",
			f2.digest == f1.digest, f2.text == f1.text)
	}
}

// TestDiffTextCountsLines: the [tasks] section is a multiset, so extra
// tasks with the same credentials as an existing one are a difference
// the digest must see and the diff must show. A set-based line diff
// reported nothing here, and a digest that combined lines by XOR would
// see nothing for two extra tasks.
func TestDiffTextCountsLines(t *testing.T) {
	var fps [2]fingerprint
	for i, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		snap, err := Golden(mode)
		if err != nil {
			t.Fatal(err)
		}
		m, err := snap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		alice, err := m.Session("alice")
		if err != nil {
			t.Fatal(err)
		}
		if mode == kernel.ModeProtego {
			m.K.Fork(alice)
			m.K.Fork(alice)
		}
		fps[i] = fingerprintOf(m)
	}
	lin, pro := fps[0], fps[1]
	if lin.digest == pro.digest || lin.text == pro.text {
		t.Fatalf("extra tasks left the fingerprint unchanged: digests equal %v, texts equal %v",
			lin.digest == pro.digest, lin.text == pro.text)
	}
	diff := DiffText(lin.text, pro.text, "linux-only", "protego-only")
	want := "  protego-only: uid=1000/1000/1000/1000 "
	if strings.Count(diff, "\n") != 2 || strings.Count(diff, want) != 2 {
		t.Fatalf("diff = %q, want two lines starting %q", diff, want)
	}
}

// TestFingerprintDigestUncached: the digest of a golden-image clone reuses
// what sealed inodes and the snapshot keep, so after each mutation it must
// still equal, in both forms, the fingerprint of a fresh Build given the
// same mutation, which keeps nothing. Each mutation must also move both
// forms away from the unmutated clone's.
func TestFingerprintDigestUncached(t *testing.T) {
	rename := func(from, to string) func(*Machine) error {
		return func(m *Machine) error { return m.K.FS.Rename(vfs.RootCred, from, to) }
	}
	mutations := []struct {
		name   string
		mutate func(*Machine) error
		same   bool // the mutation is undone, so the state must not move
	}{
		// A sealed directory holding normalized paths (the setuid
		// binaries), whose cached digest was computed at /usr/bin.
		{name: "rename /usr/bin", mutate: rename("/usr/bin", "/usr/bin2")},
		{name: "rename /usr/bin and back", same: true, mutate: func(m *Machine) error {
			if err := rename("/usr/bin", "/usr/bin2")(m); err != nil {
				return err
			}
			m.Fingerprint() // caches the sealed subtree at /usr/bin2
			return rename("/usr/bin2", "/usr/bin")(m)
		}},
		{name: "chmod sealed file", mutate: func(m *Machine) error {
			return m.K.FS.Chmod(vfs.RootCred, "/etc/fstab", 0o600)
		}},
		{name: "remove sealed file", mutate: func(m *Machine) error {
			return m.K.FS.Remove(vfs.RootCred, "/etc/motd")
		}},
		// An account database change: a fragment on Protego, the legacy
		// passwd on the baseline, through the setuid or deprivileged chfn.
		{name: "chfn", mutate: func(m *Machine) error {
			bob, err := m.Session("bob")
			if err != nil {
				return err
			}
			code, _, stderr, err := m.Run(bob, []string{userspace.BinChfn, "-f", "Robert Tables"}, AnswerWith(BobPassword))
			if err == nil && code != 0 {
				err = fmt.Errorf("chfn exit %d: %s", code, stderr)
			}
			return err
		}},
	}
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		snap, err := Golden(mode)
		if err != nil {
			t.Fatal(err)
		}
		base, err := snap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		before := fingerprintOf(base) // fills the caches the clones below reuse
		for _, mu := range mutations {
			t.Run(mode.String()+"/"+mu.name, func(t *testing.T) {
				clone, err := snap.Clone()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := Build(Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []*Machine{clone, fresh} {
					if err := mu.mutate(m); err != nil {
						t.Fatal(err)
					}
				}
				got := fingerprintOf(clone)
				requireSame(t, "clone vs fresh build", fingerprintOf(fresh), got)
				if mu.same {
					requireSame(t, "undone mutation", before, got)
				} else if got.digest == before.digest || got.text == before.text {
					t.Fatalf("mutation left the fingerprint unchanged: digests equal %v, texts equal %v",
						got.digest == before.digest, got.text == before.text)
				}
			})
		}
	}
}

// TestFingerprintSkipsSettledSync: Fingerprint runs the fragment-to-legacy
// account sync until one clone has found the snapshot's account files
// converged, then skips it on every clone that still has those files,
// and a fragment change is still converged, by one sync: the next
// fingerprint finds the file system as that sync left it.
func TestFingerprintSkipsSettledSync(t *testing.T) {
	golden, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	snap := golden.Snapshot()
	syncsAfter := func(m *Machine, fingerprints int) int {
		for i := 0; i < fingerprints; i++ {
			m.Fingerprint()
		}
		return m.Monitor.SyncCount("accounts-legacy")
	}
	first, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if got := syncsAfter(first, 3); got != 1 {
		t.Fatalf("three fingerprints of the first clone ran %d syncs, want 1", got)
	}
	m, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if got := syncsAfter(m, 2); got != 0 {
		t.Fatalf("two fingerprints of the next clone ran %d syncs, want 0", got)
	}
	bob, err := m.Session("bob")
	if err != nil {
		t.Fatal(err)
	}
	if code, _, stderr, err := m.Run(bob, []string{userspace.BinChfn, "-f", "Robert Tables"}, AnswerWith(BobPassword)); err != nil || code != 0 {
		t.Fatalf("chfn: code=%d err=%v stderr=%s", code, err, stderr)
	}
	if got := syncsAfter(m, 2); got != 1 {
		t.Fatalf("two fingerprints after a fragment change ran %d syncs, want 1", got)
	}
	u, err := m.DB.LookupUser("bob")
	if err != nil || u.Gecos != "Robert Tables" {
		t.Fatalf("legacy passwd not converged: %+v err=%v", u, err)
	}
}
