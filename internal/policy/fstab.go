// Package policy implements parsers for the legacy, policy-relevant
// configuration files the paper's study identifies: /etc/fstab (user
// mounts), /etc/sudoers and /etc/sudoers.d (delegation), /etc/bind
// (privileged-port allocation), and /etc/ppp/options (PPP session policy).
// The baseline's setuid utilities parse these files, and so do the
// Protego /proc writers, which take each file's text as it is: the
// monitoring daemon copies the files in, and an administrator can write
// the same text directly.
package policy

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"protego/internal/vfs"
)

// FstabEntry is one line of /etc/fstab.
type FstabEntry struct {
	Device     string
	MountPoint string
	FSType     string
	Options    []string
	Dump       int
	Pass       int
}

// HasOption reports whether the entry carries the named mount option.
func (e *FstabEntry) HasOption(opt string) bool {
	for _, o := range e.Options {
		if o == opt {
			return true
		}
	}
	return false
}

// UserMountable reports whether the administrator marked the entry
// mountable by unprivileged users via the "user" or "users" option.
func (e *FstabEntry) UserMountable() bool {
	return e.HasOption("user") || e.HasOption("users")
}

// The user-mount decision below is the one copy of the rule that
// util-linux's setuid mount(8) and umount(8) enforce for a caller without
// CAP_SYS_ADMIN. The baseline utilities call it on the row they read from
// /etc/fstab, the Protego LSM on the row of its whitelist, and the test
// harnesses to judge both; none of it allocates but MountWith.

// safeUserOption reports whether a user may add opt to any user mount: it
// only narrows what the mount allows, or marks it as a user mount.
func safeUserOption(opt string) bool {
	switch opt {
	case "ro", "nosuid", "nodev", "noexec", "user", "users", "noauto", "sync":
		return true
	}
	return false
}

// autoFSType reports whether fstype leaves the type to be probed.
func autoFSType(fstype string) bool { return fstype == "" || fstype == "auto" }

// PermitsUserMount reports whether a caller without CAP_SYS_ADMIN may
// mount under the entry, the row at the request's (device, point), with
// fstype and opts: the entry is a user or users row, the fstypes agree
// (either may be auto or empty), and every requested option is safe or
// one of the entry's own.
func (e *FstabEntry) PermitsUserMount(fstype string, opts []string) bool {
	if !e.UserMountable() || !autoFSType(e.FSType) && !autoFSType(fstype) && fstype != e.FSType {
		return false
	}
	for _, o := range opts {
		if !safeUserOption(o) && !e.HasOption(o) {
			return false
		}
	}
	return true
}

// MountWith returns the fstype and options of a mount made under the entry
// for the requested ones: the entry's fstype when the request leaves it to
// be probed, and the entry's options followed by each requested option the
// entry lacks, so a request cannot drop the entry's ro. The slice is new:
// the entry's own is shared through the parse memo, and vfs.AttachMount
// sorts what it is given in place.
func (e *FstabEntry) MountWith(fstype string, opts []string) (string, []string) {
	if autoFSType(fstype) {
		fstype = e.FSType
	}
	out := make([]string, len(e.Options), len(e.Options)+len(opts))
	copy(out, e.Options)
	for _, o := range opts {
		if !slices.Contains(out, o) {
			out = append(out, o)
		}
	}
	return fstype, out
}

// Yields reports whether a mount of fstype with opts is one MountWith makes
// under the entry for a request PermitsUserMount allows: it has the
// entry's fstype (any when the entry says auto), and its options are the
// entry's own plus safe ones.
func (e *FstabEntry) Yields(fstype string, opts []string) bool {
	if !autoFSType(e.FSType) && fstype != e.FSType || !e.PermitsUserMount(fstype, opts) {
		return false
	}
	for _, o := range e.Options {
		if !slices.Contains(opts, o) {
			return false
		}
	}
	return true
}

// MayUnmount reports whether uid, lacking CAP_SYS_ADMIN, may unmount a
// mount of fstype that mountedBy made, where e is the fstab row at the
// mount's (device, point), or nil when there is none. A FUSE mount may be
// unmounted only by the uid that mounted it (fusermount's user= check).
// Otherwise util-linux's rule holds: anyone under a users row, only the
// uid that mounted it under a user row, and no one without a row.
func (e *FstabEntry) MayUnmount(fstype string, mountedBy, uid int) bool {
	switch {
	case fstype == "fuse":
		return mountedBy == uid
	case e == nil:
		return false
	case e.HasOption("users"):
		return true
	}
	return e.HasOption("user") && mountedBy == uid
}

// FindPair returns the first entry that names device on point, comparing
// mount points as clean paths, or nil: the row whose rule decides a user's
// mount or unmount of that pair.
func FindPair(entries []FstabEntry, device, point string) *FstabEntry {
	point = vfs.CleanPath(point, "/")
	for i := range entries {
		if e := &entries[i]; e.Device == device && vfs.CleanPath(e.MountPoint, "/") == point {
			return e
		}
	}
	return nil
}

// String renders the entry in fstab format.
func (e *FstabEntry) String() string {
	opts := strings.Join(e.Options, ",")
	if opts == "" {
		opts = "defaults"
	}
	return fmt.Sprintf("%s %s %s %s %d %d", e.Device, e.MountPoint, e.FSType, opts, e.Dump, e.Pass)
}

// ParseFstab parses the contents of /etc/fstab. Blank lines and #-comments
// are skipped; short lines are an error (a malformed fstab must not
// silently widen the mount whitelist).
func ParseFstab(data string) ([]FstabEntry, error) {
	var entries []FstabEntry
	for lineNo, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("fstab line %d: expected at least 4 fields, got %d", lineNo+1, len(fields))
		}
		e := FstabEntry{
			Device:     fields[0],
			MountPoint: fields[1],
			FSType:     fields[2],
		}
		for _, opt := range strings.Split(fields[3], ",") {
			opt = strings.TrimSpace(opt)
			if opt != "" && opt != "defaults" {
				e.Options = append(e.Options, opt)
			}
		}
		if len(fields) > 4 {
			n, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, fmt.Errorf("fstab line %d: bad dump field %q", lineNo+1, fields[4])
			}
			e.Dump = n
		}
		if len(fields) > 5 {
			n, err := strconv.Atoi(fields[5])
			if err != nil {
				return nil, fmt.Errorf("fstab line %d: bad pass field %q", lineNo+1, fields[5])
			}
			e.Pass = n
		}
		entries = append(entries, e)
	}
	return entries, nil
}
