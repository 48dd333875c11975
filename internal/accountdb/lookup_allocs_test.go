package accountdb_test

import (
	"testing"

	"protego/internal/kernel"
	"protego/internal/world"
)

// TestAccountLookupAllocs pins the account lookups on the image's
// unchanged databases: the parse is shared, so a lookup allocates only
// the file read, the copy it returns and, for the group lists, the slice
// it grows (twice for alice's two gids, three times for her three
// names). sudo, su, newgrp and Protego's delegation hooks call these on
// every use.
func TestAccountLookupAllocs(t *testing.T) {
	img, err := world.Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	m, err := img.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		want   float64
		lookup func() bool
	}{
		{"LookupUser", 2, func() bool {
			u, err := m.DB.LookupUser("charlie")
			return err == nil && u.UID == world.UIDCharlie
		}},
		{"LookupUID", 2, func() bool {
			u, err := m.DB.LookupUID(world.UIDCharlie)
			return err == nil && u.Name == "charlie"
		}},
		{"GroupIDsOf", 4, func() bool {
			gids, err := m.DB.GroupIDsOf("alice")
			return err == nil && len(gids) == 2
		}},
		{"GroupNamesOf", 5, func() bool {
			names, err := m.DB.GroupNamesOf("alice")
			return err == nil && len(names) == 3
		}},
		{"LookupGroup", 3, func() bool {
			g, err := m.DB.LookupGroup("wheel")
			return err == nil && g.GID == world.GIDWheel && len(g.Members) == 2
		}},
	} {
		if !tc.lookup() {
			t.Fatalf("%s: wrong answer on the image's databases", tc.name)
		}
		if a := testing.AllocsPerRun(100, func() { tc.lookup() }); a > tc.want {
			t.Errorf("%s: %v allocs per lookup, want at most %v", tc.name, a, tc.want)
		}
	}
}
