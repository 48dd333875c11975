package world

import (
	"testing"

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
