package world

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/vfs"
)

// mutatorRow is one mutation of fingerprinted state. setup runs on a
// fresh clone and returns the mutation, which is one call.
type mutatorRow struct {
	name  string
	setup func(m *Machine, root *kernel.Task) (mutate func() error, err error)
}

// do is a row with no set-up beyond the root session.
func do(f func(m *Machine, root *kernel.Task) error) func(*Machine, *kernel.Task) (func() error, error) {
	return func(m *Machine, root *kernel.Task) (func() error, error) {
		return func() error { return f(m, root) }, nil
	}
}

// after is a row whose set-up, first, leaves state that the mutation,
// then, changes.
func after(first, then func(m *Machine, root *kernel.Task) error) func(*Machine, *kernel.Task) (func() error, error) {
	return func(m *Machine, root *kernel.Task) (func() error, error) {
		if err := first(m, root); err != nil {
			return nil, err
		}
		return func() error { return then(m, root) }, nil
	}
}

// onChild is a row whose mutation acts on a fork of the root session.
func onChild(f func(k *kernel.Kernel, child *kernel.Task) error) func(*Machine, *kernel.Task) (func() error, error) {
	return func(m *Machine, root *kernel.Task) (func() error, error) {
		child := m.K.Fork(root)
		return func() error { return f(m.K, child) }, nil
	}
}

// withSocket is a row on a stream socket of the root session, bound to
// port first when port is not zero.
func withSocket(port int, f func(k *kernel.Kernel, root *kernel.Task, sock *netstack.Socket) error) func(*Machine, *kernel.Task) (func() error, error) {
	return func(m *Machine, root *kernel.Task) (func() error, error) {
		sock, err := m.K.Socket(root, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err == nil && port != 0 {
			err = m.K.Bind(root, sock, port)
		}
		return func() error { return f(m.K, root, sock) }, err
	}
}

func ioctlPPP(cmd uint32, arg any) func(*Machine, *kernel.Task) error {
	return func(m *Machine, root *kernel.Task) error { return m.K.Ioctl(root, userspace.PppDevice, cmd, arg) }
}

func mountCdrom(m *Machine, root *kernel.Task) error {
	return m.K.Mount(root, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"})
}

var testRoute = netstack.Route{Dest: netstack.IPv4(192, 168, 9, 0), PrefixLen: 24, Iface: "eth0", Metric: 5}

func addRoute(m *Machine, root *kernel.Task) error { return m.K.AddRoute(root, testRoute) }

func openFile(path string, flags int) func(*Machine, *kernel.Task) error {
	return func(m *Machine, root *kernel.Task) error {
		_, err := m.K.Open(root, path, flags)
		return err
	}
}

// mutatorRows names every mutator of fingerprinted state: a new one
// moves its subsystem's generation and gets a row here.
var mutatorRows = []mutatorRow{
	// Files.
	{"WriteFile", do(func(m *Machine, root *kernel.Task) error {
		return m.K.WriteFile(root, "/etc/motd", []byte("rewritten\n"))
	})},
	{"AppendFile", do(func(m *Machine, root *kernel.Task) error {
		return m.K.AppendFile(root, "/etc/motd", []byte("appended\n"))
	})},
	{"descriptor write", func(m *Machine, root *kernel.Task) (func() error, error) {
		fd, err := m.K.Open(root, "/etc/motd", kernel.O_WRONLY)
		return func() error {
			_, err := m.K.Write(root, fd, []byte("w")) // over the W of Welcome
			return err
		}, err
	}},
	{"O_TRUNC open", do(openFile("/etc/motd", kernel.O_WRONLY|kernel.O_TRUNC))},
	{"create", do(openFile("/tmp/created", kernel.O_WRONLY|kernel.O_CREAT))},
	{"mkdir", do(func(m *Machine, root *kernel.Task) error { return m.K.Mkdir(root, "/tmp/dir", 0o755) })},
	{"chmod", do(func(m *Machine, root *kernel.Task) error { return m.K.Chmod(root, "/etc/motd", 0o600) })},
	{"chown", do(func(m *Machine, root *kernel.Task) error {
		return m.K.Chown(root, "/etc/motd", UIDAlice, GIDUsers)
	})},
	{"rename", do(func(m *Machine, root *kernel.Task) error {
		return m.K.Rename(root, "/etc/motd", "/etc/motd.old")
	})},
	{"unlink", do(func(m *Machine, root *kernel.Task) error { return m.K.Unlink(root, "/etc/motd") })},
	{"symlink", do(func(m *Machine, _ *kernel.Task) error {
		return m.K.FS.Symlink(vfs.RootCred, "/etc/motd", "/tmp/link", 0, 0)
	})},
	{"mknod", do(func(m *Machine, _ *kernel.Task) error {
		_, err := m.K.FS.Mknod(vfs.RootCred, "/dev/zero", vfs.CharDevice, 1, 5, 0o666, 0, 0)
		return err
	})},
	{"proc file", do(func(m *Machine, _ *kernel.Task) error {
		_, err := m.K.FS.CreateProc("/tmp/knob", 0o644, nil, func(vfs.Cred, []byte) error { return nil })
		return err
	})},
	{"proc rebind", after(func(m *Machine, _ *kernel.Task) error {
		_, err := m.K.FS.CreateProc("/tmp/knob", 0o644, nil, func(vfs.Cred, []byte) error { return nil })
		return err
	}, func(m *Machine, _ *kernel.Task) error { return m.K.FS.RebindProc("/tmp/knob", nil, nil) })},

	// Mounts.
	{"mount", do(mountCdrom)},
	{"umount", after(mountCdrom, func(m *Machine, root *kernel.Task) error { return m.K.Umount(root, "/cdrom") })},

	// Tasks.
	{"fork", do(func(m *Machine, root *kernel.Task) error { m.K.Fork(root); return nil })},
	{"exit", onChild(func(k *kernel.Kernel, child *kernel.Task) error { k.Exit(child, 0); return nil })},
	{"setuid", onChild(func(k *kernel.Kernel, child *kernel.Task) error { return k.Setuid(child, UIDBob) })},
	{"seteuid", onChild(func(k *kernel.Kernel, child *kernel.Task) error { return k.Seteuid(child, UIDBob) })},
	{"setgroups", onChild(func(k *kernel.Kernel, child *kernel.Task) error {
		return k.Setgroups(child, []int{GIDWheel})
	})},
	{"session credentials", onChild(func(_ *kernel.Kernel, child *kernel.Task) error {
		child.SetUserCreds(kernel.UserCreds(UIDCharlie, GIDUsers))
		return nil
	})},
	// On Protego sudo's setuid is deferred, and the exec of id completes
	// it: exec's store is the only change. The child is not reaped.
	{"sudo exec", func(m *Machine, _ *kernel.Task) (func() error, error) {
		alice, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		child := m.K.Fork(alice)
		child.Asker = AnswerWith(AlicePassword)
		return func() error {
			code, err := m.K.Exec(child, userspace.BinSudo, []string{userspace.BinSudo, userspace.BinID}, nil)
			if err == nil && code != 0 {
				err = fmt.Errorf("sudo id exited %d", code)
			}
			if err == nil && child.Creds().EUID != UIDRoot {
				err = fmt.Errorf("sudo left euid %d", child.Creds().EUID)
			}
			return err
		}, nil
	}},

	// Network.
	{"bind", withSocket(0, func(k *kernel.Kernel, root *kernel.Task, sock *netstack.Socket) error {
		return k.Bind(root, sock, 8080)
	})},
	{"close bound socket", withSocket(8080, func(k *kernel.Kernel, root *kernel.Task, sock *netstack.Socket) error {
		return k.CloseSocket(root, sock)
	})},
	{"route add", do(addRoute)},
	{"route delete", after(addRoute, func(m *Machine, root *kernel.Task) error {
		return m.K.DelRoute(root, testRoute.Dest, testRoute.PrefixLen)
	})},
	{"iface add", do(func(m *Machine, _ *kernel.Task) error {
		m.K.Net.AddIface(&netstack.Iface{Name: "ppp1", Modem: true})
		return nil
	})},
	{"PPPIOCATTACH", do(ioctlPPP(kernel.PPPIOCATTACH, "ppp0"))},
	{"PPPIOCDETACH", after(ioctlPPP(kernel.PPPIOCATTACH, "ppp0"), ioctlPPP(kernel.PPPIOCDETACH, "ppp0"))},
	{"PPPIOCSPARAM", after(ioctlPPP(kernel.PPPIOCATTACH, "ppp0"),
		ioctlPPP(kernel.PPPIOCSPARAM, [2]string{"vj-max-slots", "8"}))},

	// Accounts: on Protego chfn writes bob's fragment, which the
	// fingerprint skips, and the account sync converges it.
	{"chfn", do(func(m *Machine, _ *kernel.Task) error { return chfnBob(m) })},
}

// chfnBob runs chfn as bob, which changes his passwd record.
func chfnBob(m *Machine) error {
	bob, err := m.Session("bob")
	if err != nil {
		return err
	}
	code, _, stderr, err := m.Run(bob, []string{userspace.BinChfn, "-f", "Robert Tables"}, AnswerWith(BobPassword))
	if err == nil && code != 0 {
		err = fmt.Errorf("chfn exit %d: %s", code, stderr)
	}
	return err
}

// TestFingerprintTracksEveryMutator: a fingerprint kept across one
// mutation must move, and must equal the single, cold fingerprint of a
// fresh clone given the same mutation. A mutator that does not move its
// subsystem's generation leaves the kept digest in place.
func TestFingerprintTracksEveryMutator(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		snap, err := Golden(mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range mutatorRows {
			t.Run(mode.String()+"/"+row.name, func(t *testing.T) {
				var mutate [2]func() error
				var machines [2]*Machine
				for i := range machines {
					m, err := snap.Clone()
					if err != nil {
						t.Fatal(err)
					}
					root, err := m.Session("root")
					if err != nil {
						t.Fatal(err)
					}
					if mutate[i], err = row.setup(m, root); err != nil {
						t.Fatalf("set-up: %v", err)
					}
					machines[i] = m
				}
				warm, cold := machines[0], machines[1]
				before := warm.Fingerprint()
				for _, f := range mutate {
					if err := f(); err != nil {
						t.Fatalf("mutation: %v", err)
					}
				}
				got, want := warm.Fingerprint(), cold.Fingerprint()
				if got == before {
					t.Fatalf("the kept fingerprint did not move")
				}
				if got != want {
					t.Fatalf("kept fingerprint %x, cold fingerprint %x", got, want)
				}
			})
		}
	}
}

// TestFingerprintUnchangedAllocs: fingerprinting a machine that has not
// changed since its last fingerprint allocates nothing, hashes no inode
// and runs no account sync.
func TestFingerprintUnchangedAllocs(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		snap, err := Golden(mode)
		if err != nil {
			t.Fatal(err)
		}
		m, err := snap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		// A private account file, so the sync and the sections are the
		// clone's own.
		if err := chfnBob(m); err != nil {
			t.Fatal(err)
		}
		want := m.Fingerprint()
		syncs := func() int {
			if m.Monitor == nil {
				return 0
			}
			return m.Monitor.SyncCount("accounts-legacy")
		}
		leaves, synced := m.fp.l.leaves, syncs()
		var got Digest
		if allocs := testing.AllocsPerRun(100, func() { got = m.Fingerprint() }); allocs != 0 {
			t.Errorf("%s: an unchanged fingerprint allocates %v, want 0", mode, allocs)
		}
		if got != want {
			t.Errorf("%s: unchanged fingerprint moved", mode)
		}
		if n := m.fp.l.leaves - leaves; n != 0 {
			t.Errorf("%s: unchanged fingerprints hashed %d inodes, want 0", mode, n)
		}
		if n := syncs() - synced; n != 0 {
			t.Errorf("%s: unchanged fingerprints ran %d account syncs, want 0", mode, n)
		}
	}
}

// TestFingerprintRetriesFailedSync: an account sync that fails is run
// again by the next fingerprint, though the file system has not moved,
// and that fingerprint is the cold one of the converged change.
func TestFingerprintRetriesFailedSync(t *testing.T) {
	snap, err := Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	var machines [2]*Machine
	for i := range machines {
		if machines[i], err = snap.Clone(); err != nil {
			t.Fatal(err)
		}
		if err := chfnBob(machines[i]); err != nil {
			t.Fatal(err)
		}
	}
	m, cold := machines[0], machines[1]
	// The fault fires on every attempt, retries included, until disarmed.
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteMonAccounts, Action: faultinject.ActErr, Err: errno.EIO},
	}})
	m.SetFaultInjector(in)
	failed := m.Fingerprint()
	if n := m.Monitor.SyncCount("accounts-legacy"); n != 0 || in.Injections() == 0 {
		t.Fatalf("the first fingerprint completed %d syncs after %d injections, want 0 after some", n, in.Injections())
	}
	in.SetEnabled(false)
	got := m.Fingerprint()
	if n := m.Monitor.SyncCount("accounts-legacy"); n != 1 {
		t.Fatalf("the next fingerprint completed %d syncs, want 1", n)
	}
	if want := cold.Fingerprint(); got != want || got == failed {
		t.Fatalf("after the retried sync: kept %x, cold %x, after the failed sync %x", got, want, failed)
	}
}

// coldFingerprint is the fingerprint of a fresh clone of m, which keeps
// nothing. m must be quiescent.
func coldFingerprint(t *testing.T, m *Machine) Digest {
	t.Helper()
	c, err := m.Snapshot().Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c.Fingerprint()
}

// TestFingerprintRacesPPPParam: PPPIOCSPARAM writes a modem's session
// parameters while Fingerprint reads them; both go through the
// netstack's lock, and the fingerprint kept at the end is the cold one.
func TestFingerprintRacesPPPParam(t *testing.T) {
	m, err := BuildProtego()
	if err != nil {
		t.Fatal(err)
	}
	alice, err := m.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.Ioctl(alice, userspace.PppDevice, kernel.PPPIOCATTACH, "ppp0"); err != nil {
		t.Fatal(err)
	}
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := m.K.Ioctl(alice, userspace.PppDevice, kernel.PPPIOCSPARAM, [2]string{"vj-max-slots", strconv.Itoa(i)}); err != nil {
				t.Errorf("PPPIOCSPARAM: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m.Fingerprint()
		}
	}()
	wg.Wait()
	if got, want := m.Fingerprint(), coldFingerprint(t, m); got != want {
		t.Fatalf("kept fingerprint %x, cold fingerprint %x", got, want)
	}
}

// TestFingerprintRacesDescriptorWrite: a descriptor write(2) changes a
// file's data while Fingerprint and ReadFile read it; all three go
// through the inode's lock, and the fingerprint kept at the end is the
// cold one.
func TestFingerprintRacesDescriptorWrite(t *testing.T) {
	snap, err := Golden(kernel.ModeLinux)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	writer, err := m.Session("root")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := m.Session("alice")
	if err != nil {
		t.Fatal(err)
	}
	const path, iters = "/etc/motd", 200
	fd, err := m.K.Open(writer, path, kernel.O_WRONLY|kernel.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := m.K.Write(writer, fd, []byte("x")); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m.Fingerprint()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := m.K.ReadFile(reader, path); err != nil {
				t.Errorf("ReadFile: %v", err)
				return
			}
			if _, err := m.K.FS.ReadFile(vfs.RootCred, path); err != nil {
				t.Errorf("FS.ReadFile: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got, want := m.Fingerprint(), coldFingerprint(t, m); got != want {
		t.Fatalf("kept fingerprint %x, cold fingerprint %x", got, want)
	}
}
