// Usermount walks the complete Figure 1 story on both systems: the same
// mount requests against baseline Linux (trusted setuid /bin/mount
// enforcing /etc/fstab in userspace) and Protego (policy in the kernel),
// including denial cases, the user/users unmount distinction, and a live
// policy update through the monitoring daemon.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// syncWait bounds the wait for the monitoring daemon to push an fstab
// edit into the kernel; a sync takes microseconds.
const syncWait = 5 * time.Second

func main() {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		fmt.Printf("===== %s =====\n", mode)
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			log.Fatal(err)
		}
		alice, _ := m.Session("alice")
		bob, _ := m.Session("bob")

		show := func(label string, code int, out, errOut string) {
			fmt.Printf("  %-46s -> exit %d %s", label, code, firstNonEmpty(out, errOut, "\n"))
		}

		code, out, errOut, _ := m.Run(alice, []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil)
		show("alice mounts whitelisted cdrom ('user')", code, out, errOut)

		code, out, errOut, _ = m.Run(bob, []string{userspace.BinUmount, "/cdrom"}, nil)
		show("bob tries to unmount alice's mount", code, out, errOut)

		code, out, errOut, _ = m.Run(alice, []string{userspace.BinUmount, "/cdrom"}, nil)
		show("alice unmounts her own mount", code, out, errOut)

		code, out, errOut, _ = m.Run(alice, []string{userspace.BinMount, "/dev/sdb1", "/media/usb"}, nil)
		show("alice mounts usb stick ('users')", code, out, errOut)

		code, out, errOut, _ = m.Run(bob, []string{userspace.BinUmount, "/media/usb"}, nil)
		show("bob unmounts the 'users' mount", code, out, errOut)

		code, out, errOut, _ = m.Run(alice, []string{userspace.BinMount, "-o", "suid", "/dev/cdrom", "/cdrom"}, nil)
		show("alice requests unsafe 'suid' option", code, out, errOut)

		code, out, errOut, _ = m.Run(alice, []string{userspace.BinMount, "/dev/sdc1", "/mnt/backup"}, nil)
		show("alice mounts non-whitelisted disk", code, out, errOut)

		if mode == kernel.ModeProtego {
			// Live policy update: the administrator edits fstab; the
			// monitoring daemon pushes the change into the kernel.
			fmt.Println("  [admin] marks /mnt/backup 'user' in /etc/fstab; monitord syncs it")
			stop := make(chan struct{})
			m.Monitor.Start(stop)
			baseline := m.Monitor.SyncCount("mounts")
			fstab, _ := m.K.FS.ReadFile(vfs.RootCred, "/etc/fstab")
			newFstab := strings.Replace(string(fstab), "ext4     rw   ", "ext4     rw,user", 1)
			if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", []byte(newFstab), 0o644, 0, 0); err != nil {
				log.Fatal(err)
			}
			for deadline := time.Now().Add(syncWait); m.Monitor.SyncCount("mounts") <= baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					log.Fatalf("monitord did not sync /etc/fstab within %v", syncWait)
				}
			}
			close(stop)
			code, out, errOut, _ = m.Run(alice, []string{userspace.BinMount, "/dev/sdc1", "/mnt/backup"}, nil)
			show("alice mounts the newly whitelisted disk", code, out, errOut)
		}
		fmt.Println()
	}
}

func firstNonEmpty(a, b, fallback string) string {
	if a != "" {
		return a
	}
	if b != "" {
		return b
	}
	return fallback
}
