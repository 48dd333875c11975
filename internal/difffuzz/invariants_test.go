package difffuzz

import (
	"reflect"
	"testing"

	"protego/internal/kernel"
	"protego/internal/policy"
	"protego/internal/vfs"
	"protego/internal/world"
)

// TestCheckInvariants plants on golden clones the states a broken image
// would leave behind and checks which standing invariants report them.
func TestCheckInvariants(t *testing.T) {
	privileged := func(t *testing.T, m *world.Machine) {
		m.K.Fork(m.Init) // root with full capabilities, left alive
	}
	userMount := func(fstype string, opts ...string) func(*testing.T, *world.Machine) {
		return func(t *testing.T, m *world.Machine) {
			mnt := &vfs.Mount{Device: "/dev/sdc1", Point: "/mnt/backup", FSType: fstype, Options: opts,
				MountedBy: world.UIDAlice, UserMount: true}
			if err := m.K.FS.AttachMount(vfs.RootCred, mnt); err != nil {
				t.Fatal(err)
			}
		}
	}
	autoRow := func(t *testing.T, m *world.Machine) {
		m.Protego.SetMountRules(append(m.Protego.MountRules(),
			policy.FstabEntry{Device: "/dev/sdc1", MountPoint: "/mnt/backup", FSType: "auto", Options: []string{"user"}}))
		userMount("ext4", "user")(t, m)
	}
	// cdrom mounts under the image's ro,user,noauto iso9660 row.
	cdrom := func(fstype string, opts ...string) func(*testing.T, *world.Machine) {
		return func(t *testing.T, m *world.Machine) {
			mnt := &vfs.Mount{Device: "/dev/cdrom", Point: "/cdrom", FSType: fstype, Options: opts,
				MountedBy: world.UIDAlice, UserMount: true}
			if err := m.K.FS.AttachMount(vfs.RootCred, mnt); err != nil {
				t.Fatal(err)
			}
		}
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
		{"row's options plus safe ones", kernel.ModeProtego,
			[]func(*testing.T, *world.Machine){cdrom("iso9660", "noauto", "ro", "sync", "user")}, nil},
		{"row's ro dropped", kernel.ModeProtego,
			[]func(*testing.T, *world.Machine){cdrom("iso9660", "noauto", "sync", "user")}, []string{"mount-whitelist"}},
		{"unsafe option added", kernel.ModeProtego,
			[]func(*testing.T, *world.Machine){cdrom("iso9660", "noauto", "ro", "suid", "user")}, []string{"mount-whitelist"}},
		{"row's fstype changed", kernel.ModeProtego,
			[]func(*testing.T, *world.Machine){cdrom("auto", "noauto", "ro", "user")}, []string{"mount-whitelist"}},
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
