package core

import (
	"fmt"
	"sort"
	"strings"

	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/policy"
	"protego/internal/vfs"
)

// MountRule is one row of the in-kernel user-mount whitelist, mirroring a
// "user"/"users" entry of /etc/fstab. A mount(2) call from a task without
// CAP_SYS_ADMIN succeeds only if its arguments match a rule (Figure 1).
type MountRule struct {
	Device     string
	MountPoint string
	FSType     string // "" or "auto" matches any fs type
	Options    []string
	// AnyUserUnmount corresponds to the "users" option: anyone may
	// unmount; "user" restricts unmounting to the mounting uid.
	AnyUserUnmount bool
}

// safeUserMountOptions are options a user may always request (mount(8)
// forces nosuid/nodev on user mounts; ro is always safe).
var safeUserMountOptions = map[string]bool{
	"ro": true, "nosuid": true, "nodev": true, "noexec": true,
	"user": true, "users": true, "noauto": true, "sync": true,
}

// mountKey is the compiled whitelist's dispatch key: every rule pins both
// a device and a mount point, so the per-call check reduces to one map
// probe plus the fstype/option comparison of the (usually single)
// candidate row.
type mountKey struct {
	device string
	point  string
}

// compiledMountRule is one whitelist row with its allowed-options set
// precomputed at install time — the per-call map allocation the linear
// scan paid on every mount(2) is paid once per rule change instead.
type compiledMountRule struct {
	fsType  string
	allowed map[string]bool
}

// compileMountRule precomputes the rule's allowed-options set (the rule's
// own options merged with safeUserMountOptions).
func compileMountRule(r *MountRule) compiledMountRule {
	allowed := make(map[string]bool, len(r.Options)+len(safeUserMountOptions))
	for o := range safeUserMountOptions {
		allowed[o] = true
	}
	for _, o := range r.Options {
		allowed[o] = true
	}
	return compiledMountRule{fsType: r.FSType, allowed: allowed}
}

// matches reports whether the request's fstype and options are covered;
// device and mount point were already matched by the index key.
func (r *compiledMountRule) matches(req *lsm.MountRequest) bool {
	if r.fsType != "" && r.fsType != "auto" && req.FSType != r.fsType && req.FSType != "auto" {
		return false
	}
	for _, o := range req.Options {
		if !r.allowed[o] {
			return false
		}
	}
	return true
}

// rebuildMountIndexLocked recompiles the whitelist indexes from m.mounts.
// Caller holds m.mu exclusively.
func (m *Module) rebuildMountIndexLocked() {
	idx := make(map[mountKey][]compiledMountRule, len(m.mounts))
	users := make(map[string]bool)
	for i := range m.mounts {
		r := &m.mounts[i]
		key := mountKey{device: r.Device, point: r.MountPoint}
		idx[key] = append(idx[key], compileMountRule(r))
		if r.AnyUserUnmount {
			users[r.MountPoint] = true
		}
	}
	m.mountIdx = idx
	m.umountUsers = users
}

// Covers reports whether the row whitelists a mount of device on point
// with fstype: device and mount point equal, and the row's fstype "",
// "auto" or fstype itself. Options are not compared. The harnesses'
// mount-whitelist invariant judges every attached user mount with it.
func (r *MountRule) Covers(device, point, fstype string) bool {
	return r.Device == device && r.MountPoint == point &&
		(r.FSType == "" || r.FSType == "auto" || r.FSType == fstype)
}

// String renders the rule in the /proc grammar's field order.
func (r *MountRule) String() string {
	opts := strings.Join(r.Options, ",")
	if opts == "" {
		opts = "-"
	}
	fstype := r.FSType
	if fstype == "" {
		fstype = "auto"
	}
	who := "user"
	if r.AnyUserUnmount {
		who = "users"
	}
	return fmt.Sprintf("%s %s %s %s %s", r.Device, r.MountPoint, fstype, opts, who)
}

// SetMountRules replaces the whitelist and recompiles the dispatch index.
func (m *Module) SetMountRules(rules []MountRule) {
	m.mu.Lock()
	m.mounts = append([]MountRule(nil), rules...)
	m.rebuildMountIndexLocked()
	m.mu.Unlock()
}

// MountRules returns a snapshot of the whitelist.
func (m *Module) MountRules() []MountRule {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]MountRule(nil), m.mounts...)
}

// MountRulesFromFstab converts the user-mountable entries of a parsed
// fstab into whitelist rows (the monitoring daemon's translation).
func MountRulesFromFstab(entries []policy.FstabEntry) []MountRule {
	var rules []MountRule
	for i := range entries {
		e := &entries[i]
		if !e.UserMountable() {
			continue
		}
		rules = append(rules, MountRule{
			Device:         e.Device,
			MountPoint:     vfs.CleanPath(e.MountPoint, "/"),
			FSType:         e.FSType,
			Options:        append([]string(nil), e.Options...),
			AnyUserUnmount: e.AnyUserUnmountable(),
		})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].MountPoint < rules[j].MountPoint })
	return rules
}

// MountCheck implements the Figure 1 flow: an unprivileged mount succeeds
// iff its arguments match the whitelist.
func (m *Module) MountCheck(t lsm.Task, req *lsm.MountRequest) (lsm.Decision, error) {
	if t.Capable(capSysAdmin) {
		return lsm.NoOpinion, nil // administrator path: base policy
	}
	m.mu.RLock()
	broken := m.brokenMountPolicy
	m.mu.RUnlock()
	if broken {
		// Test hook: whitelist check disabled (see TestHookBreakMountPolicy).
		m.bumpStat(&m.Stats.MountGrants)
		return lsm.Grant, nil
	}
	// FUSE mounts (fusermount) are grantable over directories the caller
	// owns: the file system contents are under the user's control anyway,
	// so ownership of the mount point is the natural object-based policy.
	if req.FSType == "fuse" {
		if ino, err := m.k.FS.Lookup(vfs.RootCred, req.Point); err == nil &&
			ino.Mode.IsDir() && ino.UID == t.UID() {
			m.bumpStat(&m.Stats.MountGrants)
			return lsm.Grant, nil
		}
		m.bumpStat(&m.Stats.MountDenials)
		return lsm.NoOpinion, nil
	}
	m.mu.RLock()
	cands := m.mountIdx[mountKey{device: req.Device, point: req.Point}]
	m.mu.RUnlock()
	if len(cands) > 0 {
		// The (device, point) probe found whitelist rows: the decision is
		// resolved from the compiled index without scanning the table.
		m.mountIdxHits.Add(1)
	}
	matched := false
	for i := range cands {
		if cands[i].matches(req) {
			matched = true
			break
		}
	}
	if matched {
		m.bumpStat(&m.Stats.MountGrants)
		return lsm.Grant, nil
	}
	m.bumpStat(&m.Stats.MountDenials)
	return lsm.NoOpinion, nil // base policy denies (EPERM)
}

// UmountCheck grants unprivileged unmounts of user mounts: the mounting
// user always may; anyone may when the whitelist row says "users".
func (m *Module) UmountCheck(t lsm.Task, req *lsm.UmountRequest) (lsm.Decision, error) {
	if t.Capable(capSysAdmin) {
		return lsm.NoOpinion, nil
	}
	if !req.UserMount {
		return lsm.NoOpinion, nil // only user mounts are user-unmountable
	}
	if req.MountedBy == t.UID() {
		return lsm.Grant, nil
	}
	m.mu.RLock()
	anyUser := m.umountUsers[req.Point]
	m.mu.RUnlock()
	if anyUser {
		return lsm.Grant, nil
	}
	return lsm.NoOpinion, nil
}

// parseMountRuleArgs parses the /proc grammar fields:
//
//	add <device> <mountpoint> <fstype> <options|-> <user|users>
func parseMountRuleArgs(args []string) (MountRule, error) {
	if len(args) != 5 {
		return MountRule{}, errno.EINVAL
	}
	r := MountRule{
		Device:     args[0],
		MountPoint: vfs.CleanPath(args[1], "/"),
		FSType:     args[2],
	}
	if args[3] != "-" {
		r.Options = strings.Split(args[3], ",")
	}
	switch args[4] {
	case "user":
	case "users":
		r.AnyUserUnmount = true
	default:
		return MountRule{}, errno.EINVAL
	}
	return r, nil
}
