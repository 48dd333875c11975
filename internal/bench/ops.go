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
	"bytes"
	"errors"
	"fmt"
	"time"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/world"
)

// Op is one Table-5 microbenchmark row: a set-up and a one-op closure.
// Table 5, Table 1's worst-overhead line and BenchmarkTable5Micro all time
// the closures of Table5Ops.
type Op struct {
	Name             string  // the paper's row name
	PaperOverheadPct float64 // the paper's % OH for the row
	Start            StartFunc
}

// StartFunc sets a row up on m for its root session. It returns the
// row's one-op closure, and finish, which stops any partner goroutine and
// reports the row's own check. Every row of Table5Ops can be started on
// one session at once, and the rows' ops interleaved, without one row
// disturbing another.
type StartFunc func(m *world.Machine, root *kernel.Task) (op, finish func() error, err error)

// Table5Ops is Table 5's microbenchmark rows, in the paper's order. Every
// row runs as root, as the paper's lmbench run did; the rows marked (*) in
// the paper exercise the modified system calls (mount/umount, setuid,
// setgid, ioctl, bind).
var Table5Ops = []Op{
	{"syscall", 0, plain(func(k *kernel.Kernel, t *kernel.Task) error { k.Getpid(t); return nil })},
	{"read", 0, byteSteps(readPath, fileSize, kernel.O_RDONLY, readByte)},
	{"write", 0, byteSteps(writePath, 0, kernel.O_WRONLY|kernel.O_TRUNC, writeByte)},
	{"stat", -2.94, onReadFile(func(k *kernel.Kernel, t *kernel.Task) error { _, err := k.Stat(t, readPath); return err })},
	{"open/close", 0, onReadFile(openClose)},
	{"mount/umnt", 1.13, plain(mountUmount)},
	{"setuid", 1.22, plain(func(k *kernel.Kernel, t *kernel.Task) error { return k.Setuid(t, 0) })},
	{"setgid", 1.22, plain(func(k *kernel.Kernel, t *kernel.Task) error { return k.Setgid(t, 0) })},
	{"ioctl", 0.72, plain(func(k *kernel.Kernel, t *kernel.Task) error {
		return k.Ioctl(t, userspace.VideoDevice, kernel.VIDIOCSMODE, "800x600")
	})},
	{"bind", 2.25, plain(bindPrivileged)},
	{"sig install", 0, plain(func(k *kernel.Kernel, t *kernel.Task) error { return k.SigAction(t, sigInstalled, ignore) })},
	{"sig overhead", 0, startSigOverhead},
	{"prot. fault", 0, plain(statMissing)},
	{"fork+exit", -0.63, plain(func(k *kernel.Kernel, t *kernel.Task) error { k.Exit(k.Fork(t), 0); return nil })},
	{"fork+execve", 3.43, plain(spawn(userspace.BinSh))},
	{"fork+/bin/sh", 3.90, plain(spawn(userspace.BinSh, "-c", userspace.BinID))},
	{"0KB create", -2.51, plain(createUnlink(nil))},
	{"10KB create", -1.82, plain(createUnlink(make([]byte, 10*1024)))},
	{"AF_UNIX", 4.19, startPipeEcho},
	{"Pipe", 2.23, startPipeEcho}, // the same transport in the simulation
	{"TCP connect", 3.05, startTCPConnect},
	{"Local TCP lat", 6.32, startTCPEcho(false)},
	{"Local UDP lat", 7.19, startUDPEcho(false)},
	{"Rem. UDP lat", 6.38, startUDPEcho(true)},
	{"Rem. TCP lat", 7.38, startTCPEcho(true)},
	{"BW 64KB xfer", 2.74, startBandwidth},
}

const (
	// fileSize is the size of the read file and the bound of the write
	// file: their descriptors are reopened each time this many one-byte
	// ops have moved the offset to the end.
	fileSize  = 4096
	readPath  = "/etc/lmbench.read"
	writePath = "/tmp/lmbench.write"
	churnPath = "/tmp/lmbench.churn"

	// Each signal row owns its signal, so installing a handler never
	// replaces the one whose runs are counted.
	sigCounted   = 10 // SIGUSR1, raised by sig overhead
	sigInstalled = 12 // SIGUSR2, whose handler sig install replaces

	// partnerIdle bounds how long an echo partner waits for the next
	// message; finish stops it long before.
	partnerIdle = time.Minute
)

var token = []byte{1}

func noCheck() error { return nil }

// plain is a row with no set-up and no check of its own.
func plain(op func(k *kernel.Kernel, t *kernel.Task) error) StartFunc {
	return func(m *world.Machine, root *kernel.Task) (func() error, func() error, error) {
		return func() error { return op(m.K, root) }, noCheck, nil
	}
}

// onReadFile is a row on the 4,096-byte read file, which it (re)writes.
func onReadFile(op func(k *kernel.Kernel, t *kernel.Task) error) StartFunc {
	return func(m *world.Machine, root *kernel.Task) (func() error, func() error, error) {
		if err := m.K.WriteFile(root, readPath, make([]byte, fileSize)); err != nil {
			return nil, nil, err
		}
		return plain(op)(m, root)
	}
}

func openClose(k *kernel.Kernel, t *kernel.Task) error {
	fd, err := k.Open(t, readPath, kernel.O_RDONLY)
	if err != nil {
		return err
	}
	return k.CloseFD(t, fd)
}

// byteSteps is a row on a file that Start writes with size zero bytes
// and opens with flags. Its op calls step, failing unless step moves the
// offset exactly one byte, and reopens the file each time the offset
// reaches fileSize.
func byteSteps(path string, size, flags int, step func(k *kernel.Kernel, t *kernel.Task, fd int) (int, error)) StartFunc {
	return func(m *world.Machine, root *kernel.Task) (func() error, func() error, error) {
		k, fd := m.K, 0
		err := k.WriteFile(root, path, make([]byte, size))
		if err == nil {
			fd, err = k.Open(root, path, flags)
		}
		if err != nil {
			return nil, nil, err
		}
		steps := 0
		op := func() error {
			n, err := step(k, root, fd)
			if err == nil && n != 1 {
				err = fmt.Errorf("%s: %d bytes moved, want 1", path, n)
			}
			if steps++; steps%fileSize == 0 && err == nil {
				if err = k.CloseFD(root, fd); err == nil {
					fd, err = k.Open(root, path, flags)
				}
			}
			return err
		}
		return op, func() error { return k.CloseFD(root, fd) }, nil
	}
}

func readByte(k *kernel.Kernel, t *kernel.Task, fd int) (int, error) {
	buf, err := k.Read(t, fd, 1)
	return len(buf), err
}

func writeByte(k *kernel.Kernel, t *kernel.Task, fd int) (int, error) { return k.Write(t, fd, token) }

func mountUmount(k *kernel.Kernel, t *kernel.Task) error {
	if err := k.Mount(t, "/dev/sdc1", "/mnt/backup", "ext4", nil); err != nil {
		return err
	}
	return k.Umount(t, "/mnt/backup")
}

func bindPrivileged(k *kernel.Kernel, t *kernel.Task) error {
	sock, err := k.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		return err
	}
	err = k.Bind(t, sock, 512)
	return errors.Join(err, k.CloseSocket(t, sock))
}

// ignore is the handler sig install installs.
func ignore(int) {}

// startSigOverhead's check is that its handler ran once per kill.
func startSigOverhead(m *world.Machine, root *kernel.Task) (func() error, func() error, error) {
	kills, fired := 0, 0
	if err := m.K.SigAction(root, sigCounted, func(int) { fired++ }); err != nil {
		return nil, nil, err
	}
	op := func() error {
		kills++
		return m.K.Kill(root, root.PID(), sigCounted)
	}
	finish := func() error {
		if fired != kills {
			return fmt.Errorf("handler ran %d times for %d kills", fired, kills)
		}
		return nil
	}
	return op, finish, nil
}

// statMissing is the kernel's fault path: a lookup that walks the whole
// path and fails.
func statMissing(k *kernel.Kernel, t *kernel.Task) error {
	if _, err := k.Stat(t, "/etc/nonexistent-page"); !errno.Is(err, errno.ENOENT) {
		return fmt.Errorf("stat of a missing path: %v, want ENOENT", err)
	}
	return nil
}

// spawn runs argv in a child of t on t's terminal, then empties t's
// stdout buffer, keeping its capacity, so that no timed round pays for
// the buffer growing.
func spawn(argv ...string) func(k *kernel.Kernel, t *kernel.Task) error {
	return func(k *kernel.Kernel, t *kernel.Task) error {
		res, err := k.Spawn(t, argv[0], argv, nil, kernel.SpawnOpts{})
		if out, ok := t.Stdout.(*bytes.Buffer); ok {
			out.Reset()
		}
		if err == nil && res.Code != 0 {
			err = fmt.Errorf("%v exited %d", argv, res.Code)
		}
		return err
	}
}

func createUnlink(data []byte) func(k *kernel.Kernel, t *kernel.Task) error {
	return func(k *kernel.Kernel, t *kernel.Task) error {
		if err := k.WriteFile(t, churnPath, data); err != nil {
			return err
		}
		return k.Unlink(t, churnPath)
	}
}

// partner runs step in its own goroutine until step reports no more work
// or fails; wait blocks until then and returns the failure.
func partner(step func() (more bool, err error)) (wait func() error) {
	done := make(chan error, 1)
	go func() {
		more, err := true, error(nil)
		for more && err == nil {
			more, err = step()
		}
		done <- err
	}()
	return func() error { return <-done }
}

// startPipeEcho ping-pongs one byte with a partner over a pipe pair.
func startPipeEcho(m *world.Machine, _ *kernel.Task) (func() error, func() error, error) {
	a, b := m.K.UnixSocketPair()
	wait := partner(func() (bool, error) {
		msg, err := a.Read(partnerIdle)
		if errno.Is(err, errno.EPIPE) {
			return false, nil // finish closed a
		}
		if err == nil {
			_, err = b.Write(msg)
		}
		return true, err
	})
	op := func() error {
		if _, err := a.Write(token); err != nil {
			return err
		}
		_, err := b.Read(time.Second)
		return err
	}
	return op, func() error { a.Close(); return wait() }, nil
}

// startBandwidth streams 64KB chunks through a pipe to a partner that
// reads them (lmbench's bw test, reported as time per chunk); its check is
// that the partner read every chunk.
func startBandwidth(m *world.Machine, _ *kernel.Task) (func() error, func() error, error) {
	p := m.K.NewPipe()
	chunk := make([]byte, 64*1024)
	sent, read := 0, 0
	wait := partner(func() (bool, error) {
		_, err := p.Read(partnerIdle)
		if errno.Is(err, errno.EPIPE) {
			return false, nil // finish closed the pipe
		}
		if err == nil {
			read++
		}
		return true, err
	})
	op := func() error {
		sent++
		_, err := p.Write(chunk)
		return err
	}
	finish := func() error {
		p.Close()
		err := wait()
		if err == nil && read != sent {
			err = fmt.Errorf("partner read %d of %d chunks", read, sent)
		}
		return err
	}
	return op, finish, nil
}

// netEnd is where a network row's partner serves: a task's sockets
// through the kernel's system calls (taskNet), or a remote machine's bare
// stack.
type netEnd interface {
	NewSocket(family, typ, proto int) (*netstack.Socket, error)
	Bind(sock *netstack.Socket, port int) error
	Listen(sock *netstack.Socket, backlog int) error
	Accept(sock *netstack.Socket, timeout time.Duration) (*netstack.Socket, error)
	Send(sock *netstack.Socket, data []byte) (int, error)
	Recv(sock *netstack.Socket, timeout time.Duration) ([]byte, error)
	SendTo(sock *netstack.Socket, pkt *netstack.Packet) error
	RecvFrom(sock *netstack.Socket, timeout time.Duration) (*netstack.Packet, error)
	Close(sock *netstack.Socket) error
	HostIP() netstack.IP
}

// taskNet issues a task's socket calls as system calls.
type taskNet struct {
	k *kernel.Kernel
	t *kernel.Task
}

func (n taskNet) NewSocket(family, typ, proto int) (*netstack.Socket, error) {
	return n.k.Socket(n.t, family, typ, proto)
}
func (n taskNet) Bind(s *netstack.Socket, port int) error      { return n.k.Bind(n.t, s, port) }
func (n taskNet) Listen(s *netstack.Socket, backlog int) error { return n.k.Listen(n.t, s, backlog) }
func (n taskNet) Accept(s *netstack.Socket, d time.Duration) (*netstack.Socket, error) {
	return n.k.Accept(n.t, s, d)
}
func (n taskNet) Send(s *netstack.Socket, data []byte) (int, error) { return n.k.Send(n.t, s, data) }
func (n taskNet) Recv(s *netstack.Socket, d time.Duration) ([]byte, error) {
	return n.k.Recv(n.t, s, d)
}
func (n taskNet) SendTo(s *netstack.Socket, pkt *netstack.Packet) error {
	return n.k.SendTo(n.t, s, pkt)
}
func (n taskNet) RecvFrom(s *netstack.Socket, d time.Duration) (*netstack.Packet, error) {
	return n.k.RecvFrom(n.t, s, d)
}
func (n taskNet) Close(s *netstack.Socket) error { return n.k.CloseSocket(n.t, s) }
func (n taskNet) HostIP() netstack.IP            { return n.k.Net.HostIP() }

// serverEnd is where a network row's partner serves: the machine itself,
// or for a remote row its peer stack, whose ports are its own.
func serverEnd(m *world.Machine, local taskNet, remote bool) netEnd {
	if remote {
		return peerStack(m)
	}
	return local
}

// peerStack returns the remote machine of the paper's two-machine
// latency tests: a bare stack linked to the machine's network. Both
// remote rows share it, so it is made once per machine.
func peerStack(m *world.Machine) *netstack.Stack {
	if peer := m.K.Net.Linked(); peer != nil {
		return peer
	}
	peer := netstack.NewStack(netstack.IPv4(10, 0, 1, 2))
	netstack.Link(m.K.Net, peer)
	peer.AddRoute(netstack.Route{Dest: netstack.IPv4(10, 0, 0, 0), PrefixLen: 24, Iface: "eth0", Metric: 50})
	m.K.Net.AddRoute(netstack.Route{Dest: netstack.IPv4(10, 0, 1, 0), PrefixLen: 24, Iface: "eth0", Metric: 50})
	return peer
}

func listen(n netEnd, port int) (*netstack.Socket, error) {
	sock, err := n.NewSocket(netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err == nil {
		err = n.Bind(sock, port)
	}
	if err == nil {
		err = n.Listen(sock, 8)
	}
	return sock, err
}

// startTCPConnect: each op connects a fresh socket to a listener, which
// accepts it, and closes both ends.
func startTCPConnect(m *world.Machine, root *kernel.Task) (func() error, func() error, error) {
	k := taskNet{m.K, root}
	srv, err := listen(k, 8080)
	if err != nil {
		return nil, nil, err
	}
	op := func() error {
		client, err := k.NewSocket(netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err != nil {
			return err
		}
		err = m.K.Connect(root, client, k.HostIP(), 8080)
		if err == nil {
			var conn *netstack.Socket
			if conn, err = k.Accept(srv, time.Second); err == nil {
				err = k.Close(conn)
			}
		}
		return errors.Join(err, k.Close(client))
	}
	return op, func() error { return k.Close(srv) }, nil
}

// startTCPEcho ping-pongs one byte over a connection with a partner on
// this machine or, for a remote row, on the peer stack.
func startTCPEcho(remote bool) StartFunc {
	return func(m *world.Machine, root *kernel.Task) (func() error, func() error, error) {
		k := taskNet{m.K, root}
		end := serverEnd(m, k, remote)
		srv, err := listen(end, 8081)
		if err != nil {
			return nil, nil, err
		}
		client, err := k.NewSocket(netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err == nil {
			err = m.K.Connect(root, client, end.HostIP(), 8081)
		}
		var conn *netstack.Socket
		if err == nil {
			conn, err = end.Accept(srv, time.Second)
		}
		if err != nil {
			return nil, nil, err
		}
		wait := partner(func() (bool, error) {
			msg, err := end.Recv(conn, partnerIdle)
			if err != nil || len(msg) == 0 {
				return false, err // no bytes: finish closed the client
			}
			_, err = end.Send(conn, msg)
			return true, err
		})
		op := func() error {
			if _, err := k.Send(client, token); err != nil {
				return err
			}
			reply, err := k.Recv(client, time.Second)
			if err == nil && len(reply) != 1 {
				err = fmt.Errorf("echo returned %d bytes", len(reply))
			}
			return err
		}
		finish := func() error {
			err := k.Close(client)
			return errors.Join(err, wait(), end.Close(conn), end.Close(srv))
		}
		return op, finish, nil
	}
}

// startUDPEcho ping-pongs a datagram with a partner on this machine or,
// for a remote row, on the peer stack.
func startUDPEcho(remote bool) StartFunc {
	return func(m *world.Machine, root *kernel.Task) (func() error, func() error, error) {
		k := taskNet{m.K, root}
		end := serverEnd(m, k, remote)
		srv, err := end.NewSocket(netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
		if err == nil {
			err = end.Bind(srv, 9090)
		}
		var client *netstack.Socket // bound to an ephemeral port by its first send
		if err == nil {
			client, err = k.NewSocket(netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP)
		}
		if err != nil {
			return nil, nil, err
		}
		wait := partner(func() (bool, error) {
			pkt, err := end.RecvFrom(srv, partnerIdle)
			if err != nil || len(pkt.Payload) == 0 {
				return false, err // an empty datagram: finish's stop
			}
			return true, end.SendTo(srv, &netstack.Packet{Dst: pkt.Src, DstPort: pkt.SrcPort, Payload: pkt.Payload})
		})
		dst := end.HostIP()
		op := func() error {
			if err := k.SendTo(client, &netstack.Packet{Dst: dst, DstPort: 9090, Payload: token}); err != nil {
				return err
			}
			_, err := k.RecvFrom(client, time.Second)
			return err
		}
		finish := func() error {
			err := k.SendTo(client, &netstack.Packet{Dst: dst, DstPort: 9090})
			if err == nil {
				err = wait()
			}
			return errors.Join(err, end.Close(srv), k.Close(client))
		}
		return op, finish, nil
	}
}
