package policy_test

import (
	"testing"

	"protego/internal/kernel"
	"protego/internal/policy"
	"protego/internal/vfs"
	"protego/internal/world"
)

// TestSudoersLookupAllocs pins the delegation lookups to zero allocations
// on the image's sudoers: the setuid hook and the exec-time check run one
// each per delegated command, through the one rule scan, so the alias
// walk must not build a slice per name.
func TestSudoersLookupAllocs(t *testing.T) {
	img, err := world.Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	m, err := img.Clone()
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.K.FS.ReadFile(vfs.RootCred, "/etc/sudoers")
	if err != nil {
		t.Fatal(err)
	}
	s, err := policy.ParseSudoers(string(data))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := m.DB.GroupNamesOf("charlie")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		lookup func() bool
	}{
		{"LookupTransition", func() bool {
			return s.LookupTransition("charlie", groups, "root")
		}},
		{"LookupCommand", func() bool {
			_, ok := s.LookupCommand("charlie", groups, "root", "/bin/ls")
			return ok
		}},
		{"LookupCommand miss", func() bool {
			_, ok := s.LookupCommand("charlie", groups, "root", "/bin/sh")
			return !ok
		}},
	} {
		if !tc.lookup() {
			t.Fatalf("%s: wrong answer for wheel member charlie", tc.name)
		}
		if a := testing.AllocsPerRun(100, func() { tc.lookup() }); a != 0 {
			t.Errorf("%s: %v allocs per lookup, want 0", tc.name, a)
		}
	}
}
