package world

import (
	"testing"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
)

// TestSyscallAllocs gates the syscall hot path on allocations per call,
// which are deterministic where nanoseconds are not. Tracing, the LSM
// chain and path handling must add none: each ceiling is what the call
// itself returns or creates (a read's buffer; open's descriptor; a
// written file's new data; a created file's inode; a privileged
// setuid's new credentials; a forked task; a socket and its LSM
// requests). The FileOpen request is passed by value, so consulting the
// hook allocates nothing, and appending grows the file's data in
// amortized steps.
func TestSyscallAllocs(t *testing.T) {
	bothModes(t, func(t *testing.T, m *Machine) {
		k := m.K
		root := session(t, m, "root")
		const file = "/tmp/allocs"
		if err := k.WriteFile(root, file, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		const written, appended, created = "/tmp/allocs-w", "/tmp/allocs-a", "/tmp/allocs-new"
		for _, path := range []string{written, appended} {
			if err := k.WriteFile(root, path, nil); err != nil {
				t.Fatal(err)
			}
		}
		fd, err := k.Open(root, file, kernel.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		x := []byte("x")
		ops := []struct {
			name string
			max  float64
			op   func() error
		}{
			{"getpid", 0, func() error { k.Getpid(root); return nil }},
			{"read 1 byte", 1, func() error { _, err := k.Read(root, fd, 1); return err }},
			{"stat, dcache hit", 1, func() error { _, err := k.Stat(root, file); return err }},
			{"stat, miss", 0, func() error {
				if _, err := k.Stat(root, "/tmp/absent"); !errno.Is(err, errno.ENOENT) {
					t.Fatalf("stat of a missing file: %v", err)
				}
				return nil
			}},
			{"open+close", 1, func() error {
				fd, err := k.Open(root, file, kernel.O_RDONLY)
				if err != nil {
					return err
				}
				return k.CloseFD(root, fd)
			}},
			{"ReadFile", 1, func() error { _, err := k.ReadFile(root, file); return err }},
			{"WriteFile of an existing file", 1, func() error { return k.WriteFile(root, written, x) }},
			{"WriteFile that creates, then unlink", 1, func() error {
				if err := k.WriteFile(root, created, nil); err != nil {
					return err
				}
				return k.Unlink(root, created)
			}},
			{"AppendFile", 0, func() error { return k.AppendFile(root, appended, x) }},
			{"setuid", 1, func() error { return k.Setuid(root, 0) }},
			// The child's task, argv and maps, and the descriptor map Exit
			// leaves it; the child shares its parent's credentials.
			{"fork+exit", 9, func() error { k.Exit(k.Fork(root), 0); return nil }},
			// The socket and the socket and bind LSM requests, as in
			// Table 5's bind row: a socket that never receives makes no
			// receive queue.
			{"socket+bind+close", 3, func() error {
				sock, err := k.Socket(root, netstack.AF_INET, netstack.SOCK_DGRAM, 0)
				if err != nil {
					return err
				}
				if err := k.Bind(root, sock, 512); err != nil {
					return err
				}
				return k.CloseSocket(root, sock)
			}},
		}
		for _, o := range ops {
			var opErr error
			n := testing.AllocsPerRun(200, func() {
				if err := o.op(); err != nil {
					opErr = err
				}
			})
			if opErr != nil {
				t.Fatalf("%s: %v", o.name, opErr)
			}
			if n > o.max {
				t.Errorf("%s allocates %.0f times per call, ceiling %.0f", o.name, n, o.max)
			}
		}
	})
}
