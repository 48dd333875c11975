package world

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// TestPolicyMemoConcurrent races the file systems' parse memos of fstab
// and sudoers (run it with -race -count=10): eight goroutines, each on its
// own clone, half of them baseline and half Protego, run mount, umount and
// sudo, while two of them keep rewriting their own /etc/fstab and
// /etc/sudoers.d to more distinct contents than a memo kind holds. The
// clones all read their image's memo; a rewrite lands in the writer's
// own. Every answer must match the goroutine's own files.
func TestPolicyMemoConcurrent(t *testing.T) {
	const (
		workers = 8
		writers = 2
		rounds  = 100 // distinct contents per writer, past the memo's bound
	)
	modes := [2]kernel.Mode{kernel.ModeLinux, kernel.ModeProtego}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		img, err := Golden(modes[w%2])
		if err != nil {
			t.Fatal(err)
		}
		m, err := img.Clone()
		if err != nil {
			t.Fatal(err)
		}
		dev, point := fmt.Sprintf("/dev/memo%d", w), fmt.Sprintf("/mnt/memo%d", w)
		if _, err := m.K.FS.Mknod(vfs.RootCred, dev, vfs.BlockDevice, 8, 100+w, 0o660, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.K.FS.MkdirAll(vfs.RootCred, point, 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		fstab, err := m.K.FS.ReadFile(vfs.RootCred, "/etc/fstab")
		if err != nil {
			t.Fatal(err)
		}
		alice, err := m.Session("alice")
		if err != nil {
			t.Fatal(err)
		}
		charlie, err := m.Session("charlie")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, m *Machine) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// A writer's even rounds give alice its device and
				// charlie /bin/id.
				granted := w < writers && i%2 == 0
				if w < writers {
					if err := rewritePolicy(m, fstab, dev, point, i, granted); err != nil {
						t.Errorf("worker %d round %d: %v", w, i, err)
						return
					}
				}
				if err := checkPolicy(m, alice, charlie, dev, point, granted); err != nil {
					t.Errorf("worker %d (%s) round %d: %v", w, m.K.Mode, i, err)
					return
				}
			}
		}(w, m)
	}
	wg.Wait()
}

// rewritePolicy writes round i's /etc/fstab and /etc/sudoers.d/memo and
// on Protego pushes both through the monitoring daemon. alice's row for
// dev and charlie's /bin/id rule take effect only when granted; every
// round's files are new contents of the same length as the last round's,
// so only the bytes tell them apart.
func rewritePolicy(m *Machine, fstab []byte, dev, point string, i int, granted bool) error {
	userOpt, rule := "auto", "#harlie"
	if granted {
		userOpt, rule = "user", "charlie"
	}
	mark := fmt.Sprintf("# round %03d\n", i)
	fs := fmt.Appendf(append(slices.Clone(fstab), mark...), "%s %s ext4 rw,%s,noauto 0 0\n", dev, point, userOpt)
	sudoers := fmt.Appendf([]byte(mark), "%s ALL = (root) NOPASSWD: %s\n", rule, userspace.BinID)
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", fs, 0o644, 0, 0); err != nil {
		return err
	}
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/sudoers.d/memo", sudoers, 0o440, 0, 0); err != nil {
		return err
	}
	if m.Monitor == nil {
		return nil
	}
	if err := m.Monitor.SyncMounts(); err != nil {
		return err
	}
	return m.Monitor.SyncDelegation()
}

// checkPolicy runs the utilities against the clone's own files: the
// image's /cdrom row always mounts, alice's row for dev only when granted,
// and charlie's sudo of /bin/id succeeds only when granted.
func checkPolicy(m *Machine, alice, charlie *kernel.Task, dev, point string, granted bool) error {
	for _, c := range []struct {
		sess *kernel.Task
		argv []string
		ok   bool
	}{
		{alice, []string{userspace.BinMount, "/cdrom"}, true},
		{alice, []string{userspace.BinUmount, "/cdrom"}, true},
		{alice, []string{userspace.BinMount, dev, point}, granted},
		{alice, []string{userspace.BinUmount, point}, granted},
		{charlie, []string{userspace.BinSudo, userspace.BinID}, granted},
	} {
		code, _, stderr, err := m.Run(c.sess, c.argv, nil)
		if err != nil || (code == 0) != c.ok {
			return fmt.Errorf("%v: exit %d, %v, %q; want success = %v", c.argv, code, err, stderr, c.ok)
		}
	}
	return nil
}
