package bench

import (
	"fmt"

	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// The parallel suite measures multi-core syscall throughput: every test
// is a hot path from the Table 5 / Figure 1 evaluation, re-run with N
// workers hammering one shared Protego machine. Each worker gets its own
// session (and, where the path mutates shared state, its own device and
// mountpoint), so the measured contention is the kernel's — the task
// table's one lock, copy-on-write registries, RWMutex substrates, atomic
// decision counters — not the harness's.

// ParallelOp is one worker's operation; iter is the iteration index.
type ParallelOp func(iter int) error

// ParallelTest is one entry of the parallel suite. Setup builds a fresh
// Protego machine plus per-worker state and returns one op per worker.
type ParallelTest struct {
	Name  string
	Setup func(workers int) ([]ParallelOp, error)
}

// ParallelSuite returns the parallel hot-path tests: stat and open/close
// through the dentry cache, the mount-whitelist check, the netfilter
// verdict, sudo delegation, and the paper's full Figure 1 mount flow.
func ParallelSuite() []ParallelTest {
	return []ParallelTest{
		{Name: "stat-dcache-hit", Setup: setupProbe(statOp)},
		{Name: "open-close", Setup: setupProbe(openCloseOp)},
		{Name: "mount-whitelist-check", Setup: setupMountCheck},
		{Name: "netfilter-verdict", Setup: setupNetfilterVerdict},
		{Name: "sudo-delegation", Setup: setupSudoDelegation},
		{Name: "figure1-mount-flow", Setup: setupMountFlow},
	}
}

// setupProbe: every worker runs op (statOp or openCloseOp) on the shared
// probe file as its own alice session; after the first touch every lookup
// is a dentry-cache hit.
func setupProbe(op func(k *kernel.Kernel, t *kernel.Task) error) func(workers int) ([]ParallelOp, error) {
	return func(workers int) ([]ParallelOp, error) {
		m, err := probeMachine(false)
		if err != nil {
			return nil, err
		}
		ops := make([]ParallelOp, workers)
		for w := 0; w < workers; w++ {
			t, err := m.Session("alice")
			if err != nil {
				return nil, err
			}
			ops[w] = func(int) error { return op(m.K, t) }
		}
		return ops, nil
	}
}

// setupMountCheck: the pure LSM read path — probe the mount whitelist
// with the fstab's cdrom row; the decision must be Grant.
func setupMountCheck(workers int) ([]ParallelOp, error) {
	m, err := world.BuildProtego()
	if err != nil {
		return nil, err
	}
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		t, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		req := &lsm.MountRequest{
			Device: "/dev/cdrom", Point: "/cdrom", FSType: "iso9660",
			Options: []string{"ro"},
		}
		ops[w] = func(int) error {
			dec, err := m.K.LSM.MountCheck(t, req)
			if err != nil {
				return err
			}
			if dec != lsm.Grant {
				return fmt.Errorf("mount check: decision %v, want Grant", dec)
			}
			return nil
		}
	}
	return ops, nil
}

// setupNetfilterVerdict: the OUTPUT-chain verdict for an unprivileged raw
// ICMP echo (the packet ping sends under the Protego relaxation). Also
// the hottest writer of the tracer's decision counters.
func setupNetfilterVerdict(workers int) ([]ParallelOp, error) {
	m, err := world.BuildProtego()
	if err != nil {
		return nil, err
	}
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		pkt := &netstack.Packet{
			Dst:      netstack.IPv4(10, 0, 0, 1),
			Proto:    netstack.IPPROTO_ICMP,
			ICMPType: netstack.ICMPEchoRequest,
			FromRaw:  true, UnprivRaw: true, SenderUID: 1000,
		}
		ops[w] = func(int) error {
			if v := m.K.Filter.Output(pkt); v != netstack.Accept {
				return fmt.Errorf("netfilter: verdict %v, want Accept", v)
			}
			return nil
		}
	}
	return ops, nil
}

// setupSudoDelegation: charlie is in wheel, whose sudoers rule grants
// /bin/ls as root NOPASSWD — the password-less delegation fast path,
// spawning a real sudo child per iteration (fork/exec/exit included).
func setupSudoDelegation(workers int) ([]ParallelOp, error) {
	m, err := world.BuildProtego()
	if err != nil {
		return nil, err
	}
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		t, err := m.Session("charlie")
		if err != nil {
			return nil, err
		}
		ops[w] = func(int) error {
			code, _, stderr, err := m.Run(t, []string{userspace.BinSudo, userspace.BinLs, "/"}, nil)
			if err != nil || code != 0 {
				return fmt.Errorf("sudo: code=%d err=%v stderr=%q", code, err, stderr)
			}
			return nil
		}
	}
	return ops, nil
}

// setupMountFlow: the paper's Figure 1 flow — user mount + umount through
// the real /bin/mount and /bin/umount binaries — with a private device,
// mountpoint, and fstab rule per worker so the flows do not serialize on
// VFS mount-table conflicts.
func setupMountFlow(workers int) ([]ParallelOp, error) {
	m, err := world.BuildProtego()
	if err != nil {
		return nil, err
	}
	fs := m.K.FS
	ops := make([]ParallelOp, workers)
	for w := 0; w < workers; w++ {
		dev := fmt.Sprintf("/dev/pbench%d", w)
		point := fmt.Sprintf("/mnt/pbench%d", w)
		if _, err := fs.Mknod(vfs.RootCred, dev, vfs.BlockDevice, 8, 100+w, 0o660, 0, 0); err != nil {
			return nil, err
		}
		if err := fs.MkdirAll(vfs.RootCred, point, 0o755, 0, 0); err != nil {
			return nil, err
		}
		line := fmt.Sprintf("%s %s ext4 rw,user,noauto 0 0\n", dev, point)
		if err := fs.AppendFile(vfs.RootCred, "/etc/fstab", []byte(line)); err != nil {
			return nil, err
		}
	}
	// One monitord reload publishes the per-worker rules to the kernel.
	if err := m.Monitor.SyncMounts(); err != nil {
		return nil, err
	}
	for w := 0; w < workers; w++ {
		dev := fmt.Sprintf("/dev/pbench%d", w)
		point := fmt.Sprintf("/mnt/pbench%d", w)
		t, err := m.Session("alice")
		if err != nil {
			return nil, err
		}
		ops[w] = func(int) error {
			code, _, stderr, err := m.Run(t, []string{userspace.BinMount, dev, point}, nil)
			if err != nil || code != 0 {
				return fmt.Errorf("mount %s: code=%d err=%v stderr=%q", dev, code, err, stderr)
			}
			code, _, stderr, err = m.Run(t, []string{userspace.BinUmount, point}, nil)
			if err != nil || code != 0 {
				return fmt.Errorf("umount %s: code=%d err=%v stderr=%q", point, code, err, stderr)
			}
			return nil
		}
	}
	return ops, nil
}
