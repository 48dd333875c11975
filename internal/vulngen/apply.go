package vulngen

import (
	"fmt"

	"protego/internal/caps"
	"protego/internal/faultinject"
	"protego/internal/kernel"
	"protego/internal/vfs"
	"protego/internal/world"
)

// userCred is the attacker's (bob's) view for VFS DAC checks: mutations
// that model attacker-authored edits go through real permission checks,
// so a scenario can only "write as bob" where the environment genuinely
// lets bob write.
type userCred struct{ uid, gid int }

func (c userCred) FSUID() int            { return c.uid }
func (c userCred) FSGID() int            { return c.gid }
func (c userCred) InGroup(g int) bool    { return g == c.gid }
func (c userCred) Capable(caps.Cap) bool { return false }

var bobCred = userCred{uid: world.UIDBob, gid: world.GIDUsers}

// Apply builds the scenario's environment on the machine, in mutation
// order. The same scenario applies to both images of a pair; mutations
// that involve Protego-only components (monitord, fault sites) are no-ops
// on the baseline, and the setuid-debris mutation models each image's
// packaging faithfully (bit on the baseline, no bit on Protego).
func Apply(m *world.Machine, sc Scenario) error {
	for i, mu := range sc.Muts {
		if err := applyMut(m, mu); err != nil {
			return fmt.Errorf("vulngen: mut %d (%s): %w", i, mu.Op, err)
		}
	}
	return nil
}

func applyMut(m *world.Machine, mu Mut) error {
	fs := m.K.FS
	switch mu.Op {
	case MutChmodConfig:
		path := pick(configPool, mu.A)
		ino, err := fs.Lookup(vfs.RootCred, path)
		if err != nil {
			return err
		}
		// Keep the file type bits, open the permission bits wide.
		return fs.Chmod(vfs.RootCred, path, (ino.Mode&^vfs.Mode(0o777))|0o666)

	case MutFstabRow:
		return appendLine(m, "/etc/fstab", pick(fstabRowPool, mu.A)+"\n")

	case MutAliasCycle:
		return appendLine(m, "/etc/sudoers", aliasCycleLines)

	case MutDanglingRule:
		rule := fmt.Sprintf("bob ALL = (root) NOPASSWD: %s\n", pick(ghostPool, mu.A))
		return appendLine(m, "/etc/sudoers", rule)

	case MutSetuidDebris:
		path := pick(debrisPool, mu.A)
		mode := vfs.Mode(0o755)
		if m.K.Mode == kernel.ModeLinux {
			// The interrupted upgrade preserved the old package's setuid
			// bit; Protego's packages never carried one, so its debris
			// (written below) is an ordinary root-owned file.
			mode = 0o4755
		}
		if err := fs.WriteFile(vfs.RootCred, path, []byte("#!ELF /bin/sh (upgrade debris)"), mode, 0, 0); err != nil {
			return err
		}
		if err := fs.Chmod(vfs.RootCred, path, mode); err != nil {
			return err
		}
		// The debris behaves like a shell; the probe only needs the
		// credentials exec leaves on the task, so a stub body suffices.
		m.K.RegisterBinary(path, func(*kernel.Kernel, *kernel.Task) int { return 0 })
		return nil

	case MutCrashMonitord:
		if m.Monitor == nil {
			return nil // baseline has no monitoring daemon
		}
		m.SetFaultInjector(faultinject.New(faultinject.CrashedMonitordPlan(1)))
		return nil

	case MutSyncPolicy:
		if m.Monitor == nil {
			return nil // baseline utilities read config at invocation time
		}
		// Sync failure is tolerated by design: bounded-retry
		// keep-last-good is exactly the behavior under test, and the
		// replay asserts what the kernel policy ended up containing.
		_ = m.Monitor.SyncAll()
		return nil
	}
	return fmt.Errorf("unknown mut op %d", mu.Op)
}

// appendLine appends text to the config file at path, authored by the
// attacker when DAC lets him write it (the world-writable-config story)
// and by root (the careless administrator) otherwise.
func appendLine(m *world.Machine, path, text string) error {
	fs := m.K.FS
	ino, err := fs.Lookup(vfs.RootCred, path)
	if err != nil {
		return err
	}
	cred := vfs.Cred(vfs.RootCred)
	if vfs.CheckAccess(bobCred, ino, vfs.MayWrite) == nil {
		cred = bobCred
	}
	old, err := fs.ReadFile(cred, path)
	if err != nil {
		return err
	}
	data := old
	if len(data) > 0 && data[len(data)-1] != '\n' {
		data = append(data, '\n')
	}
	data = append(data, text...)
	return fs.WriteFile(cred, path, data, ino.Mode&0o7777, ino.UID, ino.GID)
}
