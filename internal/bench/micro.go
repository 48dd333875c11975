// Package bench implements the performance evaluation of §5.1 / Table 5:
// an lmbench-style microbenchmark suite (including the paper's 5 extra
// tests exercising the modified system calls), a Postal-style mail
// throughput workload, a kernel-compile-style build workload, and an
// ApacheBench-style web workload — each run against both the baseline and
// Protego kernels so the per-row overhead can be reported. Absolute
// numbers are properties of the simulation (Go function calls, not traps);
// the reproducible claim is the *shape*: Protego's policy checks add small
// constant work to 8 system calls and nothing anywhere else.
package bench

import (
	"fmt"
	"time"

	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/world"
)

// MicroTest is one lmbench-style row.
type MicroTest struct {
	Name  string
	Iters int
	// AsRoot runs the test as root rather than alice: mount/umount,
	// ioctl on the baseline, and binds to privileged ports need it.
	AsRoot bool
	// Run performs iters operations and returns any error; timing is
	// taken around the call.
	Run func(m *world.Machine, t *kernel.Task, iters int) error
}

// defaultIters balances precision and wall time for `go test -bench`.
const defaultIters = 2000

// MicroSuite returns the Table 5 microbenchmark rows, in the paper's
// order. The rows marked (*) are the paper's added tests for the modified
// system calls (mount/umount, setuid, setgid, ioctl, bind).
func MicroSuite() []MicroTest {
	return []MicroTest{
		{Name: "syscall", Iters: defaultIters * 10, Run: microSyscall},
		{Name: "read", Iters: defaultIters * 5, Run: microRead},
		{Name: "write", Iters: defaultIters * 5, Run: microWrite},
		{Name: "stat", Iters: defaultIters * 5, Run: microStat},
		{Name: "open/close", Iters: defaultIters * 2, Run: microOpenClose},
		{Name: "mount/umnt", Iters: defaultIters / 10, AsRoot: true, Run: microMountUmount},
		{Name: "setuid", Iters: defaultIters * 2, Run: microSetuid},
		{Name: "setgid", Iters: defaultIters * 2, Run: microSetgid},
		{Name: "ioctl", Iters: defaultIters * 2, AsRoot: true, Run: microIoctl},
		{Name: "bind", Iters: defaultIters, AsRoot: true, Run: microBind},
		{Name: "sig install", Iters: defaultIters * 5, Run: microSigInstall},
		{Name: "sig overhead", Iters: defaultIters * 5, Run: microSigOverhead},
		{Name: "prot. fault", Iters: defaultIters * 5, Run: microProtFault},
		{Name: "fork+exit", Iters: defaultIters / 2, Run: microForkExit},
		{Name: "fork+execve", Iters: defaultIters / 2, Run: microForkExec},
		{Name: "fork+/bin/sh", Iters: defaultIters / 4, Run: microForkSh},
		{Name: "0KB create", Iters: defaultIters, Run: fileChurn(0)},
		{Name: "10KB create", Iters: defaultIters, Run: fileChurn(10 * 1024)},
		{Name: "AF_UNIX", Iters: defaultIters, Run: microAFUnix},
		{Name: "Pipe", Iters: defaultIters, Run: microPipe},
		{Name: "TCP connect", Iters: defaultIters / 2, Run: microTCPConnect},
		{Name: "Local TCP lat", Iters: defaultIters, Run: microTCPLatency},
		{Name: "Local UDP lat", Iters: defaultIters, Run: microUDPLatency},
		{Name: "Rem. UDP lat", Iters: defaultIters / 2, Run: microRemoteUDPLatency},
		{Name: "Rem. TCP lat", Iters: defaultIters / 2, Run: microRemoteTCPLatency},
		{Name: "BW 64KB xfer", Iters: defaultIters / 4, Run: microBandwidth},
	}
}

func microSyscall(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		_ = m.K.Getpid(t)
	}
	return nil
}

func microRead(m *world.Machine, t *kernel.Task, iters int) error {
	fd, err := m.K.Open(t, "/etc/motd", kernel.O_RDONLY)
	if err != nil {
		return err
	}
	defer m.K.CloseFD(t, fd)
	for i := 0; i < iters; i++ {
		if _, err := m.K.Read(t, fd, 1); err != nil {
			return err
		}
	}
	return nil
}

func microWrite(m *world.Machine, t *kernel.Task, iters int) error {
	fd, err := m.K.Open(t, "/tmp/bench.write", kernel.O_WRONLY|kernel.O_CREAT)
	if err != nil {
		return err
	}
	defer m.K.CloseFD(t, fd)
	buf := []byte{'x'}
	for i := 0; i < iters; i++ {
		if _, err := m.K.Write(t, fd, buf); err != nil {
			return err
		}
	}
	return nil
}

func microStat(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		if _, err := m.K.Stat(t, "/etc/motd"); err != nil {
			return err
		}
	}
	return nil
}

func microOpenClose(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		fd, err := m.K.Open(t, "/etc/motd", kernel.O_RDONLY)
		if err != nil {
			return err
		}
		if err := m.K.CloseFD(t, fd); err != nil {
			return err
		}
	}
	return nil
}

// microMountUmount exercises the paper's modified mount path (as root, as
// lmbench does).
func microMountUmount(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		if err := m.K.Mount(t, "/dev/sdc1", "/mnt/backup", "ext4", nil); err != nil {
			return err
		}
		if err := m.K.Umount(t, "/mnt/backup"); err != nil {
			return err
		}
	}
	return nil
}

func microSetuid(m *world.Machine, t *kernel.Task, iters int) error {
	uid := t.UID()
	for i := 0; i < iters; i++ {
		if err := m.K.Setuid(t, uid); err != nil {
			return err
		}
	}
	return nil
}

func microSetgid(m *world.Machine, t *kernel.Task, iters int) error {
	gid := t.GID()
	for i := 0; i < iters; i++ {
		if err := m.K.Setgid(t, gid); err != nil {
			return err
		}
	}
	return nil
}

func microIoctl(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		if err := m.K.Ioctl(t, userspace.VideoDevice, kernel.VIDIOCSMODE, "800x600"); err != nil {
			return err
		}
	}
	return nil
}

func microBind(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		sock, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err != nil {
			return err
		}
		if err := m.K.Bind(t, sock, 512); err != nil {
			m.K.CloseSocket(t, sock)
			return err
		}
		if err := m.K.CloseSocket(t, sock); err != nil {
			return err
		}
	}
	return nil
}

func microSigInstall(m *world.Machine, t *kernel.Task, iters int) error {
	h := func(int) {}
	for i := 0; i < iters; i++ {
		if err := m.K.SigAction(t, 10, h); err != nil {
			return err
		}
	}
	return nil
}

func microSigOverhead(m *world.Machine, t *kernel.Task, iters int) error {
	fired := 0
	if err := m.K.SigAction(t, 10, func(int) { fired++ }); err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		if err := m.K.Kill(t, t.PID(), 10); err != nil {
			return err
		}
	}
	if fired != iters {
		return fmt.Errorf("handler fired %d/%d", fired, iters)
	}
	return nil
}

// microProtFault measures the kernel's fault/error path: a lookup that
// takes the full resolution walk and fails.
func microProtFault(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		if _, err := m.K.Stat(t, "/etc/nonexistent-page"); err == nil {
			return fmt.Errorf("expected fault")
		}
	}
	return nil
}

func microForkExit(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		child := m.K.Fork(t)
		m.K.Exit(child, 0)
	}
	return nil
}

func microForkExec(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		res, err := m.K.Spawn(t, userspace.BinSh, []string{userspace.BinSh}, nil, kernel.SpawnOpts{})
		if err != nil || res.Code != 0 {
			return fmt.Errorf("spawn: code=%d err=%v", res.Code, err)
		}
	}
	return nil
}

func microForkSh(m *world.Machine, t *kernel.Task, iters int) error {
	for i := 0; i < iters; i++ {
		res, err := m.K.Spawn(t, userspace.BinSh, []string{userspace.BinSh, "-c", userspace.BinID}, nil, kernel.SpawnOpts{})
		if err != nil || res.Code != 0 {
			return fmt.Errorf("spawn sh -c: code=%d err=%v", res.Code, err)
		}
	}
	return nil
}

func fileChurn(size int) func(*world.Machine, *kernel.Task, int) error {
	return func(m *world.Machine, t *kernel.Task, iters int) error {
		data := make([]byte, size)
		for i := 0; i < iters; i++ {
			if err := m.K.WriteFile(t, "/tmp/churn", data); err != nil {
				return err
			}
			if err := m.K.Unlink(t, "/tmp/churn"); err != nil {
				return err
			}
		}
		return nil
	}
}

func microAFUnix(m *world.Machine, t *kernel.Task, iters int) error {
	a, b := m.K.UnixSocketPair()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			msg, err := a.Read(time.Second)
			if err != nil {
				done <- err
				return
			}
			if _, err := b.Write(msg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	token := []byte{1}
	for i := 0; i < iters; i++ {
		if _, err := a.Write(token); err != nil {
			return err
		}
		if _, err := b.Read(time.Second); err != nil {
			return err
		}
	}
	return <-done
}

func microPipe(m *world.Machine, t *kernel.Task, iters int) error {
	return microAFUnix(m, t, iters) // same transport in the simulation
}

func microTCPConnect(m *world.Machine, t *kernel.Task, iters int) error {
	server, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		return err
	}
	defer m.K.CloseSocket(t, server)
	if err := m.K.Bind(t, server, 8080); err != nil {
		return err
	}
	if err := m.K.Listen(t, server, 1024); err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		client, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err != nil {
			return err
		}
		if err := m.K.Connect(t, client, m.K.Net.HostIP(), 8080); err != nil {
			return err
		}
		conn, err := m.K.Accept(t, server, time.Second)
		if err != nil {
			return err
		}
		_ = conn
		if err := m.K.CloseSocket(t, client); err != nil {
			return err
		}
	}
	return nil
}

func microTCPLatency(m *world.Machine, t *kernel.Task, iters int) error {
	server, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		return err
	}
	defer m.K.CloseSocket(t, server)
	if err := m.K.Bind(t, server, 8081); err != nil {
		return err
	}
	if err := m.K.Listen(t, server, 8); err != nil {
		return err
	}
	client, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		return err
	}
	defer m.K.CloseSocket(t, client)
	if err := m.K.Connect(t, client, m.K.Net.HostIP(), 8081); err != nil {
		return err
	}
	conn, err := m.K.Accept(t, server, time.Second)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			msg, err := m.K.Recv(t, conn, time.Second)
			if err != nil {
				done <- err
				return
			}
			if _, err := m.K.Send(t, conn, msg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	token := []byte{1}
	for i := 0; i < iters; i++ {
		if _, err := m.K.Send(t, client, token); err != nil {
			return err
		}
		if _, err := m.K.Recv(t, client, time.Second); err != nil {
			return err
		}
	}
	return <-done
}

func microUDPLatency(m *world.Machine, t *kernel.Task, iters int) error {
	server, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
	if err != nil {
		return err
	}
	defer m.K.CloseSocket(t, server)
	if err := m.K.Bind(t, server, 9090); err != nil {
		return err
	}
	client, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
	if err != nil {
		return err
	}
	defer m.K.CloseSocket(t, client)
	if err := m.K.Bind(t, client, 9091); err != nil {
		return err
	}
	host := m.K.Net.HostIP()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			pkt, err := m.K.RecvFrom(t, server, time.Second)
			if err != nil {
				done <- err
				return
			}
			reply := &netstack.Packet{Dst: pkt.Src, DstPort: pkt.SrcPort, Payload: pkt.Payload}
			if err := m.K.SendTo(t, server, reply); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < iters; i++ {
		pkt := &netstack.Packet{Dst: host, DstPort: 9090, Payload: []byte{1}}
		if err := m.K.SendTo(t, client, pkt); err != nil {
			return err
		}
		if _, err := m.K.RecvFrom(t, client, time.Second); err != nil {
			return err
		}
	}
	return <-done
}

// peerStack links a fresh remote stack to the machine's host network (the
// paper's two-machine remote-latency tests).
func peerStack(m *world.Machine) *netstack.Stack {
	peer := netstack.NewStack(netstack.IPv4(10, 0, 1, 2))
	netstack.Link(m.K.Net, peer)
	// The peer needs a return route toward the host's network.
	peer.AddRoute(netstack.Route{Dest: netstack.IPv4(10, 0, 0, 0), PrefixLen: 24, Iface: "eth0", Metric: 50})
	// Idempotent route installation: the suite calls this repeatedly on
	// the same machine.
	dest := netstack.IPv4(10, 0, 1, 0)
	for _, r := range m.K.Net.Routes() {
		if r.Dest == dest && r.PrefixLen == 24 {
			return peer
		}
	}
	m.K.Net.AddRoute(netstack.Route{Dest: dest, PrefixLen: 24, Iface: "eth0", Metric: 50})
	return peer
}

// microRemoteUDPLatency ping-pongs a datagram with a linked remote stack.
func microRemoteUDPLatency(m *world.Machine, t *kernel.Task, iters int) error {
	peer := peerStack(m)
	server, err := peer.NewSocket(netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
	if err != nil {
		return err
	}
	if err := peer.Bind(server, 9090); err != nil {
		return err
	}
	defer peer.Close(server)
	client, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
	if err != nil {
		return err
	}
	defer m.K.CloseSocket(t, client)
	if err := m.K.Bind(t, client, 0); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			pkt, err := peer.RecvFrom(server, time.Second)
			if err != nil {
				done <- err
				return
			}
			reply := &netstack.Packet{Dst: pkt.Src, DstPort: pkt.SrcPort, Payload: pkt.Payload}
			if err := peer.SendTo(server, reply); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < iters; i++ {
		pkt := &netstack.Packet{Dst: peer.HostIP(), DstPort: 9090, Payload: []byte{1}}
		if err := m.K.SendTo(t, client, pkt); err != nil {
			return err
		}
		if _, err := m.K.RecvFrom(t, client, time.Second); err != nil {
			return err
		}
	}
	return <-done
}

// microRemoteTCPLatency ping-pongs over a cross-stack connection.
func microRemoteTCPLatency(m *world.Machine, t *kernel.Task, iters int) error {
	peer := peerStack(m)
	server, err := peer.NewSocket(netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		return err
	}
	defer peer.Close(server)
	if err := peer.Bind(server, 9191); err != nil {
		return err
	}
	if err := peer.Listen(server, 8); err != nil {
		return err
	}
	client, err := m.K.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		return err
	}
	defer m.K.CloseSocket(t, client)
	if err := m.K.Connect(t, client, peer.HostIP(), 9191); err != nil {
		return err
	}
	conn, err := peer.Accept(server, time.Second)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			msg, err := peer.Recv(conn, time.Second)
			if err != nil {
				done <- err
				return
			}
			if _, err := peer.Send(conn, msg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	token := []byte{1}
	for i := 0; i < iters; i++ {
		if _, err := m.K.Send(t, client, token); err != nil {
			return err
		}
		if _, err := m.K.Recv(t, client, time.Second); err != nil {
			return err
		}
	}
	return <-done
}

// microBandwidth streams 64KB chunks through a pipe (lmbench's bw test;
// reported as time per transfer, lower is better).
func microBandwidth(m *world.Machine, t *kernel.Task, iters int) error {
	p := m.K.NewPipe()
	chunk := make([]byte, 64*1024)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			if _, err := p.Read(time.Second); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < iters; i++ {
		if _, err := p.Write(chunk); err != nil {
			return err
		}
	}
	return <-done
}

// User is the account the test runs as.
func (mt MicroTest) User() string {
	if mt.AsRoot {
		return "root"
	}
	return "alice"
}
