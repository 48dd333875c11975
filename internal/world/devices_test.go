package world

import (
	"testing"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/userspace"
)

// TestCloneDeviceHandlersActOnClone: clones share the image's device
// registry, so a handler must reach the machine through the calling task.
// A modem attached on one clone is in use there and nowhere else.
func TestCloneDeviceHandlersActOnClone(t *testing.T) {
	snap, err := Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	a, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	root := session(t, a, "root")
	if err := a.K.Ioctl(root, userspace.PppDevice, kernel.PPPIOCATTACH, "ppp0"); err != nil {
		t.Fatalf("attach on clone a: %v", err)
	}
	if !a.K.Net.Iface("ppp0").InUse {
		t.Fatal("clone a: ppp0 not in use after its attach")
	}
	for name, m := range map[string]*Machine{"clone b": b, "image": snap.src} {
		if m.K.Net.Iface("ppp0").InUse {
			t.Fatalf("%s: ppp0 in use after an attach on clone a", name)
		}
	}
}

// TestModemDetachOnlyModems: PPPIOCDETACH, like PPPIOCATTACH, acts only on
// a modem, on both images. Root's detach of eth0 is ENODEV and leaves it
// up; a user's detach of the ppp0 they attached succeeds. On the baseline
// the user's ioctls come from the setuid pppd, whose credentials the task
// stands in for.
func TestModemDetachOnlyModems(t *testing.T) {
	goldenClones(t, func(t *testing.T, m *Machine) {
		root := session(t, m, "root")
		if err := m.K.Ioctl(root, userspace.PppDevice, kernel.PPPIOCDETACH, "eth0"); err != errno.ENODEV {
			t.Fatalf("root's detach of eth0: %v, want ENODEV", err)
		}
		if !m.K.Net.Iface("eth0").Up {
			t.Fatal("eth0 went down")
		}
		user := session(t, m, "alice")
		if m.K.Mode == kernel.ModeLinux {
			user = m.K.Fork(root)
			setuid := kernel.RootCreds()
			setuid.RUID = UIDAlice
			user.SetUserCreds(setuid)
		}
		if err := m.K.Ioctl(user, userspace.PppDevice, kernel.PPPIOCATTACH, "ppp0"); err != nil {
			t.Fatalf("attach ppp0: %v", err)
		}
		if err := m.K.Ioctl(user, userspace.PppDevice, kernel.PPPIOCDETACH, "ppp0"); err != nil {
			t.Fatalf("detach ppp0: %v", err)
		}
		if i := m.K.Net.Iface("ppp0"); i.InUse || i.Up {
			t.Fatalf("ppp0 after detach: %+v", i)
		}
	})
}
