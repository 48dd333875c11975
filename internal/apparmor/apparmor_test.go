package apparmor

import (
	"testing"

	"protego/internal/caps"
	"protego/internal/lsm"
)

type aaTask struct {
	lsm.NullFilterSlot
	binary string
}

func (t *aaTask) PID() int                    { return 1 }
func (t *aaTask) UID() int                    { return 1000 }
func (t *aaTask) EUID() int                   { return 0 } // confined setuid binary
func (t *aaTask) GID() int                    { return 100 }
func (t *aaTask) EGID() int                   { return 100 }
func (t *aaTask) Groups() []int               { return nil }
func (t *aaTask) Capable(caps.Cap) bool       { return true }
func (t *aaTask) BinaryPath() string          { return t.binary }
func (t *aaTask) SecurityBlob(string) any     { return nil }
func (t *aaTask) SetSecurityBlob(string, any) {}

func confinedMount() *Profile {
	return &Profile{
		Binary:         "/bin/mount",
		MountPoints:    []string{"/cdrom", "/media"},
		WritePaths:     []string{"/etc/mtab", "/var/log"},
		DenyWritePaths: []string{"/etc/shadow"},
	}
}

func TestUnconfinedNoOpinion(t *testing.T) {
	m := New()
	task := &aaTask{binary: "/bin/anything"}
	d, err := m.FileOpen(task, lsm.OpenRequest{Path: "/etc/shadow", Write: true})
	if d != lsm.NoOpinion || err != nil {
		t.Fatalf("unconfined: %v %v", d, err)
	}
}

func TestConfinedWriteDenied(t *testing.T) {
	m := New()
	m.LoadProfile(confinedMount())
	task := &aaTask{binary: "/bin/mount"}
	// Outside the write set.
	d, err := m.FileOpen(task, lsm.OpenRequest{Path: "/etc/passwd", Write: true})
	if d != lsm.Deny || err == nil {
		t.Fatalf("outside write set: %v %v", d, err)
	}
	// Deny list beats write list.
	d, _ = m.FileOpen(task, lsm.OpenRequest{Path: "/etc/shadow", Write: true})
	if d != lsm.Deny {
		t.Fatal("deny list ignored")
	}
	// Inside the write set.
	d, _ = m.FileOpen(task, lsm.OpenRequest{Path: "/var/log/syslog", Write: true})
	if d != lsm.NoOpinion {
		t.Fatal("allowed write denied")
	}
	// Reads are unconstrained by this profile.
	d, _ = m.FileOpen(task, lsm.OpenRequest{Path: "/etc/passwd", Write: false})
	if d != lsm.NoOpinion {
		t.Fatal("read denied")
	}
	if m.Denials != 2 {
		t.Fatalf("denials = %d", m.Denials)
	}
}

func TestConfinedMountPoints(t *testing.T) {
	m := New()
	m.LoadProfile(confinedMount())
	task := &aaTask{binary: "/bin/mount"}
	d, _ := m.MountCheck(task, &lsm.MountRequest{Point: "/cdrom"})
	if d != lsm.NoOpinion {
		t.Fatal("allowed mount denied")
	}
	d, _ = m.MountCheck(task, &lsm.MountRequest{Point: "/media/usb"})
	if d != lsm.NoOpinion {
		t.Fatal("nested mount denied")
	}
	d, err := m.MountCheck(task, &lsm.MountRequest{Point: "/etc"})
	if d != lsm.Deny || err == nil {
		t.Fatal("profile escape: mount over /etc")
	}
}

func TestComplainMode(t *testing.T) {
	m := New()
	p := confinedMount()
	p.Complain = true
	m.LoadProfile(p)
	task := &aaTask{binary: "/bin/mount"}
	d, _ := m.FileOpen(task, lsm.OpenRequest{Path: "/etc/passwd", Write: true})
	if d != lsm.NoOpinion {
		t.Fatal("complain mode enforced")
	}
	if m.Denials != 0 {
		t.Fatal("complain mode counted a denial")
	}
}

func TestProfileManagement(t *testing.T) {
	m := New()
	m.LoadProfile(confinedMount())
	if m.Profiles() != 1 {
		t.Fatal("profile not loaded")
	}
	m.RemoveProfile("/bin/mount")
	if m.Profiles() != 0 {
		t.Fatal("profile not removed")
	}
	task := &aaTask{binary: "/bin/mount"}
	d, _ := m.FileOpen(task, lsm.OpenRequest{Path: "/etc/passwd", Write: true})
	if d != lsm.NoOpinion {
		t.Fatal("removed profile still enforced")
	}
}

func TestEmptyWriteSetUnrestricted(t *testing.T) {
	m := New()
	m.LoadProfile(&Profile{Binary: "/bin/ping", DenyWritePaths: []string{"/etc"}})
	task := &aaTask{binary: "/bin/ping"}
	d, _ := m.FileOpen(task, lsm.OpenRequest{Path: "/tmp/x", Write: true})
	if d != lsm.NoOpinion {
		t.Fatal("empty write set should be unrestricted outside deny list")
	}
	d, _ = m.FileOpen(task, lsm.OpenRequest{Path: "/etc/hosts", Write: true})
	if d != lsm.Deny {
		t.Fatal("deny list not applied")
	}
}
