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
		if fstype == "auto" {
			fstype = entry.FSType
		}
		if len(opts) == 0 {
			opts = append(opts, entry.Options...)
		}
	}

	// The injection point: argument/fstab parsing is where mount's
	// historical vulnerabilities lived (CVE-2006-2183, CVE-2007-5191).
	// On the baseline the process is euid 0 here.
	maybeExploit(k, t)

	if !protego(k) && t.UID() != 0 {
		// Trusted-binary policy enforcement (baseline only).
		if entry == nil || !entry.UserMountable() {
			t.Errorf("mount: only root can mount %s on %s\n", device, point)
			return 1
		}
		if !optionsAllowed(opts, entry) {
			t.Errorf("mount: option not permitted for user mount\n")
			return 1
		}
	}
	if err := k.Mount(t, device, point, fstype, opts); err != nil {
		t.Errorf("mount: %s: %v\n", point, err)
		return 1
	}
	t.Printf("%s mounted on %s\n", device, point)
	return 0
}

// resolveFstab finds the fstab entry matching the positional arguments
// (by device or by mount point). The entry is the memo's shared parse:
// callers only read it.
func resolveFstab(k *kernel.Kernel, t *kernel.Task, positional []string) *policy.FstabEntry {
	data, err := k.ReadFile(t, "/etc/fstab")
	if err != nil {
		return nil
	}
	entries, err := policy.MemoFstab(k.FS.Memo(), data)
	if err != nil {
		return nil
	}
	want := positional[0]
	wantPoint := want
	if len(positional) == 2 {
		wantPoint = positional[1]
	}
	for i := range entries {
		e := &entries[i]
		if e.Device == want || vfs.CleanPath(e.MountPoint, "/") == vfs.CleanPath(wantPoint, "/") {
			return e
		}
	}
	return nil
}

// optionsAllowed checks requested options against a user fstab entry (the
// baseline utility's userspace version of the kernel whitelist check).
func optionsAllowed(opts []string, entry *policy.FstabEntry) bool {
	allowed := map[string]bool{
		"ro": true, "nosuid": true, "nodev": true, "noexec": true,
		"user": true, "users": true, "noauto": true, "sync": true,
	}
	for _, o := range entry.Options {
		allowed[o] = true
	}
	for _, o := range opts {
		if !allowed[o] {
			return false
		}
	}
	return true
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

// userMayUnmount is the setuid umount binary's fstab rule, which eject
// shares on the baseline: a "users" entry lets anyone unmount point, a
// "user" entry only the user who mounted it.
func userMayUnmount(k *kernel.Kernel, t *kernel.Task, point string) bool {
	entry := resolveFstab(k, t, []string{point})
	m := k.FS.MountAt(point)
	return entry != nil &&
		(entry.HasOption("users") || (entry.HasOption("user") && m != nil && m.MountedBy == t.UID()))
}

// FusermountMain is the FUSE mount helper. Its policy — a user may mount a
// FUSE file system over a directory she owns — is enforced by the trusted
// binary on the baseline and by the kernel on Protego.
func FusermountMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) == 2 && args[0] == "-u" {
		if err := k.Umount(t, args[1]); err != nil {
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
