package monitord

import (
	"testing"

	"protego/internal/kernel"
)

func TestClassify(t *testing.T) {
	k := kernel.New(kernel.ModeProtego)
	d := New(k, nil)
	cases := map[string]string{
		"/etc/fstab":           "mounts",
		"/etc/sudoers":         "delegation",
		"/etc/sudoers.d/extra": "delegation",
		"/etc/bind":            "bind",
		"/etc/ppp/options":     "ppp",
		"/etc/passwds/alice":   "accounts-legacy",
		"/etc/shadows/alice":   "accounts-legacy",
		"/etc/groups/ops":      "accounts-legacy",
		"/etc/passwd":          "accounts-fragments",
		"/etc/shadow":          "accounts-fragments",
		"/etc/group":           "accounts-fragments",
		"/etc/motd":            "",
		"/etc/hostname":        "",
	}
	for path, want := range cases {
		if got := d.classify(path); got != want {
			t.Errorf("classify(%q) = %q want %q", path, got, want)
		}
	}
}
