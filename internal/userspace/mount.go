package userspace

import (
	"strings"

	"protego/internal/kernel"
	"protego/internal/policy"
	"protego/internal/vfs"
)

// MountMain implements mount(8):
//
//	mount [-t fstype] [-o opt,opt] <device|mountpoint> [mountpoint]
//
// Baseline: the binary is setuid root. When invoked by a non-root real
// uid, it reads /etc/fstab itself and refuses anything not marked
// user-mountable — the trusted-binary policy check of Figure 1 (left).
// Protego: the hard-coded root check is removed; the call goes straight to
// mount(2) and the kernel whitelist decides (Figure 1, right).
func MountMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	fstype := "auto"
	var opts []string
	var positional []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-t":
			if i+1 >= len(args) {
				t.Errorf("mount: -t needs an argument\n")
				return 1
			}
			i++
			fstype = args[i]
		case "-o":
			if i+1 >= len(args) {
				t.Errorf("mount: -o needs an argument\n")
				return 1
			}
			i++
			for _, o := range strings.Split(args[i], ",") {
				if o != "" && o != "defaults" {
					opts = append(opts, o)
				}
			}
		default:
			positional = append(positional, args[i])
		}
	}
	if len(positional) == 0 {
		// No arguments: print the mount table, like mount(8).
		t.Printf("%s", k.FS.FormatMtab())
		return 0
	}

	entry := resolveFstab(k, t, positional)
	var device, point string
	switch {
	case len(positional) == 2:
		device, point = positional[0], positional[1]
	case entry != nil:
		device, point = entry.Device, entry.MountPoint
	default:
		t.Errorf("mount: can't find %s in /etc/fstab\n", positional[0])
		return 1
	}
	if entry != nil {
		fstype, opts = entry.MountWith(fstype, opts)
	}

	// The injection point: argument/fstab parsing is where mount's
	// historical vulnerabilities lived (CVE-2006-2183, CVE-2007-5191).
	// On the baseline the process is euid 0 here.
	maybeExploit(k, t)

	if !protego(k) && t.UID() != 0 && (entry == nil || !entry.PermitsUserMount(fstype, opts)) {
		// Trusted-binary policy enforcement (baseline only): the fstab
		// row at (device, point) decides, by the rule Protego's kernel
		// applies to its copy of the row.
		t.Errorf("mount: only root can mount %s on %s\n", device, point)
		return 1
	}
	if err := k.Mount(t, device, point, fstype, opts); err != nil {
		t.Errorf("mount: %s: %v\n", point, err)
		return 1
	}
	t.Printf("%s mounted on %s\n", device, point)
	return 0
}

// readFstab returns the parsed /etc/fstab, or nil when it cannot be read
// or parsed, so that an unreadable or malformed file permits no user
// mount. The entries are the memo's shared parse: callers only read them.
func readFstab(k *kernel.Kernel, t *kernel.Task) []policy.FstabEntry {
	data, err := k.ReadFile(t, "/etc/fstab")
	if err != nil {
		return nil
	}
	entries, _ := policy.MemoFstab(k.FS.Memo(), data)
	return entries
}

// resolveFstab finds the fstab entry the positional arguments name: the
// row of the (device, mountpoint) pair, or the first row whose device or
// mount point is the one argument.
func resolveFstab(k *kernel.Kernel, t *kernel.Task, positional []string) *policy.FstabEntry {
	entries := readFstab(k, t)
	if len(positional) == 2 {
		return policy.FindPair(entries, positional[0], vfs.CleanPath(positional[1], t.Cwd()))
	}
	want, wantPoint := positional[0], vfs.CleanPath(positional[0], t.Cwd())
	for i := range entries {
		e := &entries[i]
		if e.Device == want || vfs.CleanPath(e.MountPoint, "/") == wantPoint {
			return e
		}
	}
	return nil
}

// UmountMain implements umount(8).
func UmountMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) != 1 {
		t.Errorf("umount: usage: umount <mountpoint>\n")
		return 1
	}
	point := vfs.CleanPath(args[0], t.Cwd())

	maybeExploit(k, t)

	if !protego(k) && t.UID() != 0 {
		if k.FS.MountAt(point) == nil {
			t.Errorf("umount: %s: not mounted\n", point)
			return 1
		}
		if !userMayUnmount(k, t, point) {
			t.Errorf("umount: %s: only root can unmount\n", point)
			return 1
		}
	}
	if err := k.Umount(t, point); err != nil {
		t.Errorf("umount: %s: %v\n", point, err)
		return 1
	}
	t.Printf("%s unmounted\n", point)
	return 0
}

// userMayUnmount is the check the setuid unmounters (umount, eject and
// fusermount -u) make on the baseline: the fstab row at the mount's
// (device, point) decides, by the rule Protego's kernel applies.
func userMayUnmount(k *kernel.Kernel, t *kernel.Task, point string) bool {
	m := k.FS.MountAt(point)
	return m != nil && policy.FindPair(readFstab(k, t), m.Device, m.Point).MayUnmount(m.FSType, m.MountedBy, t.UID())
}

// FusermountMain is the FUSE mount helper. Its policy — a user may mount a
// FUSE file system over a directory they own, and only that user may
// unmount it — is enforced by the trusted binary on the baseline and by
// the kernel on Protego.
func FusermountMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) == 2 && args[0] == "-u" {
		point := vfs.CleanPath(args[1], t.Cwd())
		if !protego(k) && t.UID() != 0 && !userMayUnmount(k, t, point) {
			t.Errorf("fusermount: failed to unmount %s: Operation not permitted\n", point)
			return 1
		}
		if err := k.Umount(t, point); err != nil {
			t.Errorf("fusermount: %v\n", err)
			return 1
		}
		return 0
	}
	if len(args) != 1 {
		t.Errorf("fusermount: usage: fusermount <mountpoint> | -u <mountpoint>\n")
		return 1
	}
	point := args[0]
	maybeExploit(k, t)
	if !protego(k) && t.UID() != 0 {
		ino, err := k.Stat(t, point)
		if err != nil || !ino.Mode.IsDir() || ino.UID != t.UID() {
			t.Errorf("fusermount: user has no write access to mountpoint %s\n", point)
			return 1
		}
	}
	if err := k.Mount(t, "fuse", point, "fuse", []string{"user"}); err != nil {
		t.Errorf("fusermount: %v\n", err)
		return 1
	}
	return 0
}
