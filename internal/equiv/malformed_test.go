package equiv

import (
	"strings"
	"testing"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/monitord"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// TestMalformedPolicyKeepsLastGood pins EXPERIMENTS.md's Known deviation 6
// on golden clones of both images. Each case revokes a grant and saves the
// revocation together with a syntax error. The baseline's setuid utility
// then refuses every user request, while on Protego the monitoring
// daemon's sync fails with EINVAL and the kernel keeps the last good
// policy, so the revoked request still succeeds. Once the file parses,
// both images refuse it.
func TestMalformedPolicyKeepsLastGood(t *testing.T) {
	for _, c := range []struct {
		name, path, grant, syntaxError string
		sync                           func(*monitord.Daemon) error
		argv                           []string
	}{
		{"fstab", monitord.FstabPath, "/dev/cdrom ", "broken line\n",
			(*monitord.Daemon).SyncMounts, []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}},
		{"ppp options", monitord.PPPOptionsPath, "user-routes", "device ttyS0\n",
			(*monitord.Daemon).SyncPPP, []string{userspace.BinPppd, "ppp0", "--route=192.168.77.0/24"}},
	} {
		for _, p := range []struct {
			phase            string
			revoke, malform  bool
			linux, protegoRC int
		}{
			{"as shipped", false, false, 0, 0},
			{"revoked with a syntax error", true, true, 1, 0},
			{"revoked", true, false, 1, 1},
		} {
			for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
				snap, err := world.Golden(mode)
				if err != nil {
					t.Fatal(err)
				}
				m, err := snap.Clone()
				if err != nil {
					t.Fatal(err)
				}
				data, err := m.K.FS.ReadFile(vfs.RootCred, c.path)
				if err != nil {
					t.Fatal(err)
				}
				var text strings.Builder
				for _, line := range strings.SplitAfter(string(data), "\n") {
					if !p.revoke || !strings.HasPrefix(line, c.grant) {
						text.WriteString(line)
					}
				}
				if p.malform {
					text.WriteString(c.syntaxError)
				}
				if err := m.K.FS.WriteFile(vfs.RootCred, c.path, []byte(text.String()), 0o644, 0, 0); err != nil {
					t.Fatal(err)
				}
				want := p.linux
				if m.Monitor != nil {
					want = p.protegoRC
					if err := c.sync(m.Monitor); p.malform != errno.Is(err, errno.EINVAL) || !p.malform && err != nil {
						t.Errorf("%s, %s: sync: %v", c.name, p.phase, err)
					}
				}
				alice, err := m.Session("alice")
				if err != nil {
					t.Fatal(err)
				}
				if code, _, stderr, _ := m.Run(alice, c.argv, nil); code != want {
					t.Errorf("%s, %s, on %s: %v exits %d (%q), want %d", c.name, p.phase, mode, c.argv, code, stderr, want)
				}
			}
		}
	}
}
