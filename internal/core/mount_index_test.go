package core

import (
	"slices"
	"testing"

	"protego/internal/caps"
	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/policy"
	"protego/internal/vfs"
)

// idxTask is an unprivileged task for exercising the whitelist directly.
type idxTask struct {
	lsm.NullFilterSlot
	uid int
}

func (t idxTask) PID() int                    { return 100 }
func (t idxTask) UID() int                    { return t.uid }
func (t idxTask) EUID() int                   { return t.uid }
func (t idxTask) GID() int                    { return t.uid }
func (t idxTask) EGID() int                   { return t.uid }
func (t idxTask) Groups() []int               { return nil }
func (t idxTask) Capable(caps.Cap) bool       { return false }
func (t idxTask) BinaryPath() string          { return "/bin/mount" }
func (t idxTask) SecurityBlob(string) any     { return nil }
func (t idxTask) SetSecurityBlob(string, any) {}

func idxModule() *Module {
	m := New(kernel.New(kernel.ModeProtego), nil, nil)
	m.SetMountRules([]policy.FstabEntry{
		{Device: "/dev/cdrom", MountPoint: "/cdrom", FSType: "iso9660",
			Options: []string{"uid=1000", "user"}},
		{Device: "/dev/sdb1", MountPoint: "/media/usb", FSType: "vfat",
			Options: []string{"users"}},
		// A later row at the same pair never decides.
		{Device: "/dev/cdrom", MountPoint: "/cdrom", FSType: "ext4",
			Options: []string{"suid", "users"}},
	})
	return m
}

func mountReq(dev, point, fstype string, opts ...string) *lsm.MountRequest {
	return &lsm.MountRequest{Device: dev, Point: point, FSType: fstype, Options: opts}
}

func TestMountIndexGrantsWhitelisted(t *testing.T) {
	m := idxModule()
	alice := idxTask{uid: 1000}
	cases := []struct {
		req  *lsm.MountRequest
		want lsm.Decision
	}{
		// Exact rule match.
		{mountReq("/dev/cdrom", "/cdrom", "iso9660"), lsm.Grant},
		// Safe options are always merged into the allowed set...
		{mountReq("/dev/cdrom", "/cdrom", "iso9660", "ro", "nosuid", "nodev"), lsm.Grant},
		// ...as are the rule's own options.
		{mountReq("/dev/cdrom", "/cdrom", "iso9660", "uid=1000", "ro"), lsm.Grant},
		// "auto" in the request matches any rule fstype and vice versa.
		{mountReq("/dev/cdrom", "/cdrom", "auto"), lsm.Grant},
		// Unsafe option not in the rule: denied.
		{mountReq("/dev/cdrom", "/cdrom", "iso9660", "suid"), lsm.NoOpinion},
		// Wrong fstype: denied.
		{mountReq("/dev/cdrom", "/cdrom", "ext4"), lsm.NoOpinion},
		// (device, point) not in the whitelist at all.
		{mountReq("/dev/cdrom", "/mnt", "iso9660"), lsm.NoOpinion},
		{mountReq("/dev/sda1", "/cdrom", "iso9660"), lsm.NoOpinion},
	}
	for _, c := range cases {
		got, err := m.MountCheck(alice, c.req)
		if err != nil {
			t.Fatalf("MountCheck(%+v): %v", c.req, err)
		}
		if got != c.want {
			t.Errorf("MountCheck(%+v) = %v, want %v", c.req, got, c.want)
		}
	}
	// A grant rewrites the request to what the row yields: its fstype,
	// and its options followed by the safe ones the caller added.
	req := mountReq("/dev/cdrom", "/cdrom", "auto", "sync")
	if d, _ := m.MountCheck(alice, req); d != lsm.Grant {
		t.Fatalf("sync: %v", d)
	}
	if req.FSType != "iso9660" || !slices.Equal(req.Options, []string{"uid=1000", "user", "sync"}) {
		t.Fatalf("granted request: %s %v", req.FSType, req.Options)
	}
}

func TestMountIndexHitCounter(t *testing.T) {
	m := idxModule()
	alice := idxTask{uid: 1000}
	before := m.mountIdxHits.Load()
	// Index hit: the (device, point) pair has whitelist rows, whatever
	// the final verdict.
	m.MountCheck(alice, mountReq("/dev/cdrom", "/cdrom", "ext4"))
	m.MountCheck(alice, mountReq("/dev/cdrom", "/cdrom", "iso9660"))
	// Index miss: unknown pair.
	m.MountCheck(alice, mountReq("/dev/zero", "/nowhere", "ext4"))
	if got := m.mountIdxHits.Load(); got != before+2 {
		t.Fatalf("mountIdxHits = %d, want %d", got, before+2)
	}
}

func TestMountIndexTracksRuleMutations(t *testing.T) {
	m := idxModule()
	alice := idxTask{uid: 1000}
	req := mountReq("/dev/sdc1", "/mnt/extra", "ext4")
	if d, _ := m.MountCheck(alice, req); d != lsm.NoOpinion {
		t.Fatalf("before add: %v", d)
	}
	// The /proc/protego/mounts writer is the one path that edits rules.
	if err := m.writeMounts(vfs.RootCred, []byte("/dev/sdc1 /mnt/extra ext4 user 0 0\n")); err != nil {
		t.Fatal(err)
	}
	if d, _ := m.MountCheck(alice, req); d != lsm.Grant {
		t.Fatalf("after add: %v", d)
	}
	if err := m.writeMounts(vfs.RootCred, []byte("/dev/sdc1 /mnt/extra ext4 defaults 0 0\n")); err != nil {
		t.Fatal(err)
	}
	if d, _ := m.MountCheck(alice, req); d != lsm.NoOpinion {
		t.Fatalf("after del: %v", d)
	}
}

func TestUmountUsersIndex(t *testing.T) {
	m := idxModule()
	bob, alice := idxTask{uid: 1001}, idxTask{uid: 1000}
	for _, c := range []struct {
		name string
		who  idxTask
		req  lsm.UmountRequest
		want lsm.Decision
	}{
		{"users row: anyone", bob,
			lsm.UmountRequest{Point: "/media/usb", Device: "/dev/sdb1", FSType: "vfat", MountedBy: 1000}, lsm.Grant},
		{"users row: root's mount too", bob,
			lsm.UmountRequest{Point: "/media/usb", Device: "/dev/sdb1", FSType: "vfat", MountedBy: 0}, lsm.Grant},
		{"user row: not another uid", bob,
			lsm.UmountRequest{Point: "/cdrom", Device: "/dev/cdrom", FSType: "iso9660", MountedBy: 1000}, lsm.NoOpinion},
		{"user row: the mounting uid", alice,
			lsm.UmountRequest{Point: "/cdrom", Device: "/dev/cdrom", FSType: "iso9660", MountedBy: 1000}, lsm.Grant},
		{"no row: not even the mounting uid", alice,
			lsm.UmountRequest{Point: "/mnt", Device: "/dev/cdrom", FSType: "iso9660", MountedBy: 1000}, lsm.NoOpinion},
		{"fuse: the mounting uid", alice,
			lsm.UmountRequest{Point: "/home/alice", Device: "user-fs", FSType: "fuse", MountedBy: 1000}, lsm.Grant},
		{"fuse: not another uid", bob,
			lsm.UmountRequest{Point: "/home/alice", Device: "user-fs", FSType: "fuse", MountedBy: 1000}, lsm.NoOpinion},
	} {
		if d, _ := m.UmountCheck(c.who, &c.req); d != c.want {
			t.Errorf("%s: %v, want %v", c.name, d, c.want)
		}
	}
}
