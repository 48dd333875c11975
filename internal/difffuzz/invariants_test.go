package difffuzz

import (
	"reflect"
	"testing"

	"protego/internal/core"
	"protego/internal/kernel"
	"protego/internal/vfs"
	"protego/internal/world"
)

// TestCheckInvariants plants on golden clones the states a broken image
// would leave behind and checks which standing invariants report them.
func TestCheckInvariants(t *testing.T) {
	privileged := func(t *testing.T, m *world.Machine) {
		m.K.Fork(m.Init) // root with full capabilities, left alive
	}
	userMount := func(fstype string) func(*testing.T, *world.Machine) {
		return func(t *testing.T, m *world.Machine) {
			mnt := &vfs.Mount{Device: "/dev/sdc1", Point: "/mnt/backup", FSType: fstype,
				MountedBy: world.UIDAlice, UserMount: true}
			if err := m.K.FS.AttachMount(vfs.RootCred, mnt); err != nil {
				t.Fatal(err)
			}
		}
	}
	autoRow := func(t *testing.T, m *world.Machine) {
		m.Protego.SetMountRules(append(m.Protego.MountRules(),
			core.MountRule{Device: "/dev/sdc1", MountPoint: "/mnt/backup", FSType: "auto"}))
		userMount("ext4")(t, m)
	}
	cases := []struct {
		name  string
		mode  kernel.Mode
		plant []func(*testing.T, *world.Machine)
		want  []string // the reported invariants, in order
	}{
		{"clean", kernel.ModeProtego, nil, nil},
		{"privileged task", kernel.ModeProtego, []func(*testing.T, *world.Machine){privileged},
			[]string{"no-unauthorized-priv"}},
		{"uncovered user mount", kernel.ModeProtego, []func(*testing.T, *world.Machine){userMount("ext4")},
			[]string{"mount-whitelist"}},
		{"fuse mount", kernel.ModeProtego, []func(*testing.T, *world.Machine){userMount("fuse")}, nil},
		{"auto row covers ext4", kernel.ModeProtego, []func(*testing.T, *world.Machine){autoRow}, nil},
		{"baseline checks tasks only", kernel.ModeLinux,
			[]func(*testing.T, *world.Machine){privileged, userMount("ext4")},
			[]string{"no-unauthorized-priv"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap, err := world.Golden(c.mode)
			if err != nil {
				t.Fatal(err)
			}
			m, err := snap.Clone()
			if err != nil {
				t.Fatal(err)
			}
			for _, plant := range c.plant {
				plant(t, m)
			}
			vs := CheckInvariants(m)
			if c.want == nil && vs != nil {
				t.Fatalf("clean machine reported %+v", vs)
			}
			var got []string
			for _, v := range vs {
				got = append(got, v.Invariant)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("invariants = %v, want %v (%+v)", got, c.want, vs)
			}
		})
	}
}
