// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, plus the ablation benchmarks called
// out in DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
//
// The human-readable tables themselves are produced by cmd/protego-bench.
package protego_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"protego/internal/bench"
	"protego/internal/equiv"
	"protego/internal/exploits"
	"protego/internal/kernel"
	"protego/internal/monitord"
	"protego/internal/netfilter"
	"protego/internal/netstack"
	"protego/internal/policy"
	"protego/internal/survey"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

func mustBuild(b *testing.B, mode kernel.Mode) *world.Machine {
	b.Helper()
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func mustSession(b *testing.B, m *world.Machine, user string) *kernel.Task {
	b.Helper()
	t, err := m.Session(user)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

var modes = []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego}

// --- Table 1: the summary is the exploit corpus + the worst-case
// microbenchmark; benchmark the end-to-end single-CVE evaluation. ---

func BenchmarkTable1Summary(b *testing.B) {
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exploits.RunCVE(mode, exploits.Corpus[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 3: survey computation. ---

func BenchmarkTable3Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if survey.FormatTable3() == "" {
			b.Fatal("bad survey")
		}
	}
}

// --- Table 4: the policy catalog's hot enforcement paths. ---

func BenchmarkTable4PolicyChecks(b *testing.B) {
	m := mustBuild(b, kernel.ModeProtego)
	alice := mustSession(b, m, "alice")
	b.Run("mount-whitelist-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.K.Mount(alice, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"}); err != nil {
				b.Fatal(err)
			}
			if err := m.K.Umount(alice, "/cdrom"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mount-whitelist-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := m.K.Mount(alice, "/dev/sdc1", "/mnt/backup", "ext4", nil); err == nil {
				b.Fatal("expected denial")
			}
		}
	})
	b.Run("raw-socket-grant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sock, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.K.CloseSocket(alice, sock)
		}
	})
}

// --- Table 5: one sub-benchmark per lmbench-style row per kernel, each
// timing the row's closure from bench.Table5Ops on one root session,
// plus the three macro workloads. ---

func BenchmarkTable5Micro(b *testing.B) {
	for _, mode := range modes {
		m := mustBuild(b, mode)
		root := mustSession(b, m, "root")
		for _, row := range bench.Table5Ops {
			op, finish, err := row.Start(m, root)
			if err != nil {
				b.Fatalf("%s: %v", row.Name, err)
			}
			b.Run(fmt.Sprintf("%s/%s", mode, strings.ReplaceAll(row.Name, "/", "_")), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Fatal(err)
					}
				}
			})
			if err := finish(); err != nil {
				b.Fatalf("%s: %v", row.Name, err)
			}
		}
	}
}

func BenchmarkTable5Postal(b *testing.B) {
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunPostal(mode, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable5KernelCompile(b *testing.B) {
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunCompile(mode, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable5Web(b *testing.B) {
	for _, mode := range modes {
		for _, conc := range []int{25, 200} {
			conc := conc
			b.Run(fmt.Sprintf("%s/conc%d", mode, conc), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunWeb(mode, conc, 400); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Table 6: exploit evaluation throughput. ---

func BenchmarkTable6Exploits(b *testing.B) {
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cve := exploits.Corpus[i%len(exploits.Corpus)]
				if _, err := exploits.RunCVE(mode, cve); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 7: functional-equivalence scenario throughput. ---

func BenchmarkTable7Equivalence(b *testing.B) {
	scenarios := equiv.Scenarios["mount"]
	for i := 0; i < b.N; i++ {
		s := scenarios[i%len(scenarios)]
		if _, err := s.Compare(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 8: long-tail classification. ---

func BenchmarkTable8Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if survey.AddressedBinaries() != 77 {
			b.Fatal("bad table 8")
		}
	}
}

// --- Figure 1: the end-to-end user-mount flow through /bin/mount. ---

func BenchmarkFigure1MountFlow(b *testing.B) {
	for _, mode := range modes {
		m := mustBuild(b, mode)
		alice := mustSession(b, m, "alice")
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				code, _, _, _ := m.Run(alice, []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil)
				if code != 0 {
					b.Fatal("mount failed")
				}
				code, _, _, _ = m.Run(alice, []string{userspace.BinUmount, "/cdrom"}, nil)
				if code != 0 {
					b.Fatal("umount failed")
				}
			}
		})
	}
}

// --- Ablation 1 (DESIGN.md): mount whitelist lookup cost vs size. The
// whitelist is indexed by (device, mountpoint) on rule change, so the
// cost should stay flat as the table grows — this verifies it. ---

func BenchmarkAblationMountLookup(b *testing.B) {
	for _, size := range []int{1, 16, 256, 4096} {
		size := size
		b.Run(fmt.Sprintf("whitelist-%d", size), func(b *testing.B) {
			m := mustBuild(b, kernel.ModeProtego)
			rules := make([]policy.FstabEntry, size)
			for i := range rules {
				rules[i] = policy.FstabEntry{
					Device:     fmt.Sprintf("/dev/disk%d", i),
					MountPoint: fmt.Sprintf("/mnt/disk%d", i),
					FSType:     "ext4",
					Options:    []string{"user"},
				}
			}
			// The probed entry sits at the end — worst case.
			rules[size-1] = policy.FstabEntry{Device: "/dev/cdrom", MountPoint: "/cdrom", FSType: "iso9660", Options: []string{"ro", "user"}}
			m.Protego.SetMountRules(rules)
			alice := mustSession(b, m, "alice")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.K.Mount(alice, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"}); err != nil {
					b.Fatal(err)
				}
				if err := m.K.Umount(alice, "/cdrom"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation 2: authentication recency in the task struct vs consulting
// the authentication service on every transition. Each op is sudo's setuid
// then exec of a command that only alice's password rule permits, so the
// exec is where she authenticates. ---

func BenchmarkAblationAuthRecency(b *testing.B) {
	delegate := func(b *testing.B, m *world.Machine, child *kernel.Task) {
		child.Stdout = nil
		if err := m.K.Setuid(child, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := m.K.Exec(child, userspace.BinID, []string{userspace.BinID}, nil); err != nil {
			b.Fatal(err)
		}
		m.K.Exit(child, 0)
	}
	b.Run("recency-stamp-hit", func(b *testing.B) {
		m := mustBuild(b, kernel.ModeProtego)
		alice := mustSession(b, m, "alice")
		alice.Asker = world.AnswerWith(world.AlicePassword)
		// Authenticate once and stamp alice's task.
		if err := m.Auth.EnsureRecent(alice, "alice"); err != nil {
			b.Fatal(err)
		}
		attempts := m.Auth.Attempts
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			delegate(b, m, m.K.Fork(alice)) // inherits the recency stamp
		}
		b.StopTimer()
		if m.Auth.Attempts != attempts {
			b.Fatalf("recency stamp not honored: %d extra password checks",
				m.Auth.Attempts-attempts)
		}
	})
	b.Run("password-check-every-time", func(b *testing.B) {
		m := mustBuild(b, kernel.ModeProtego)
		base := mustSession(b, m, "alice")
		base.Asker = world.AnswerWith(world.AlicePassword)
		attempts := m.Auth.Attempts
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			child := m.K.Fork(base)
			child.SetSecurityBlob("auth.last", nil) // no stamp: full check
			delegate(b, m, child)
		}
		b.StopTimer()
		if got := m.Auth.Attempts - attempts; got != b.N {
			b.Fatalf("%d password checks for %d delegations", got, b.N)
		}
	})
}

// --- Ablation 3: netfilter raw-socket filtering cost vs rule count. The
// OUTPUT chain is evaluated in rule order, so the noise rules sit ahead of
// the defaults: every packet is checked against all of them before the
// echo rule accepts it. ---

func BenchmarkAblationNetfilterRules(b *testing.B) {
	for _, extra := range []int{0, 6, 64, 512} {
		extra := extra
		b.Run(fmt.Sprintf("rules-%d", extra), func(b *testing.B) {
			m := mustBuild(b, kernel.ModeProtego)
			if err := m.K.Filter.Flush("OUTPUT"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < extra; i++ {
				_ = m.K.Filter.Append("OUTPUT", &netfilter.Rule{
					Name:     fmt.Sprintf("noise-%d", i),
					Proto:    netstack.IPPROTO_UDP,
					DstPorts: []int{40000 + i},
					Verdict:  netfilter.Drop,
				})
			}
			for _, r := range netfilter.ProtegoDefaultRules() {
				if err := m.K.Filter.Append("OUTPUT", r); err != nil {
					b.Fatal(err)
				}
			}
			alice := mustSession(b, m, "alice")
			sock, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP)
			if err != nil {
				b.Fatal(err)
			}
			pkt := &netstack.Packet{
				Dst: m.K.Net.HostIP(), Proto: netstack.IPPROTO_ICMP,
				ICMPType: netstack.ICMPEchoRequest, Payload: []byte("x"),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.K.SendTo(alice, sock, pkt); err != nil {
					b.Fatal(err)
				}
				// Drain the reply so the queue never overflows. Delivery
				// is synchronous (the echo reply is queued before SendTo
				// returns), so a missing reply is a real failure.
				if _, err := m.K.RecvFrom(alice, sock, time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation 4: monitoring-daemon synchronization cost vs config size. ---

func BenchmarkAblationMonitorSync(b *testing.B) {
	for _, entries := range []int{4, 64, 512} {
		entries := entries
		b.Run(fmt.Sprintf("fstab-%d", entries), func(b *testing.B) {
			m := mustBuild(b, kernel.ModeProtego)
			fstab := ""
			for i := 0; i < entries; i++ {
				fstab += fmt.Sprintf("/dev/disk%d /mnt/d%d ext4 rw,user 0 0\n", i, i)
			}
			if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", []byte(fstab), 0o644, 0, 0); err != nil {
				b.Fatal(err)
			}
			d := monitord.New(m.K, m.Protego)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.SyncMounts(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
