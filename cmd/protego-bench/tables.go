package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"protego/internal/bench"
	"protego/internal/exploits"
	"protego/internal/kernel"
	"protego/internal/survey"
	"protego/internal/userspace"
	"protego/internal/world"
)

// printTable1 reproduces the summary table by actually running the
// underlying experiments (exploit corpus + Table 5's micro rows, timed
// through bench.Table5Ops' closures). A '~' after the worst row means the
// 95% CIs of its two medians overlap: the difference is noise.
func printTable1(quick bool) error {
	fmt.Println("Table 1: Summary of results")

	// Security: the exploit corpus under Protego.
	corpus := exploits.Corpus
	if quick {
		corpus = corpus[:8]
	}
	contained := 0
	for _, cve := range corpus {
		res, err := exploits.RunCVE(kernel.ModeProtego, cve)
		if err != nil {
			return err
		}
		if !res.Escalated {
			contained++
		}
	}

	// Performance: the worst Table 5 micro row.
	rows, err := bench.RunTable5(bench.Table5Config{SkipMacro: true})
	if err != nil {
		return err
	}
	worst := &rows[0]
	for i := range rows {
		if rows[i].OverheadPct() > worst.OverheadPct() {
			worst = &rows[i]
		}
	}
	noise := ""
	if worst.Noise() {
		noise = " ~"
	}

	fmt.Printf("  %-62s %10s\n", "Net lines of code de-privileged (paper):", "12,717")
	fmt.Printf("  %-62s %9.1f%%\n", "Deployed systems that can eliminate the setuid bit (paper):", survey.CoveragePct)
	fmt.Printf("  %-62s %7d/%d\n", "Historical exploits unprivileged on Protego (measured):", contained, len(corpus))
	fmt.Printf("  %-62s %9.1f%% (%s)%s\n", "Worst microbenchmark overhead (measured; paper <= 7.4%):",
		worst.OverheadPct(), worst.Name, noise)
	fmt.Printf("  %-62s %10d\n", "System calls changed:", 8)
	return nil
}

// table2Components maps the paper's Table 2 rows to this repository's
// packages (the simulation implements whole subsystems, not deltas, so the
// magnitudes differ; the roles correspond one-to-one).
var table2Components = []struct {
	Row      string
	PaperLoC string
	Dirs     []string
}{
	{"Kernel: LSM hooks, /proc interface, syscalls", "415", []string{"internal/kernel", "internal/lsm"}},
	{"Protego LSM module (policy checks)", "200", []string{"internal/core"}},
	{"Netfilter extension for raw sockets", "100", []string{"internal/netfilter"}},
	{"Monitoring daemon", "400", []string{"internal/monitord"}},
	{"Authentication utility", "1200", []string{"internal/authsvc"}},
	{"Utilities (iptables, vipw, dmcrypt, mount, sudo, pppd, ...)", "194 net", []string{"internal/userspace"}},
	{"Substrates the paper reused from Linux (VFS, net, accounts)", "-", []string{"internal/vfs", "internal/netstack", "internal/accountdb", "internal/policy"}},
}

func printTable2(repo string) error {
	fmt.Println("Table 2: Lines of code per component (paper deltas vs this reproduction)")
	fmt.Printf("  %-62s %10s %12s\n", "Component", "Paper", "This repo")
	total := 0
	for _, c := range table2Components {
		lines := 0
		for _, dir := range c.Dirs {
			n, err := countGoLines(filepath.Join(repo, dir))
			if err != nil {
				return fmt.Errorf("counting %s: %w", dir, err)
			}
			lines += n
		}
		total += lines
		fmt.Printf("  %-62s %10s %12d\n", c.Row, c.PaperLoC, lines)
	}
	fmt.Printf("  %-62s %10s %12d\n", "Total", "2,598", total)
	return nil
}

// countGoLines counts lines of non-test Go source under dir.
func countGoLines(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	lines := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		lines += strings.Count(string(data), "\n")
	}
	return lines, nil
}

// printFigure1 narrates the mount control flow of Figure 1 on both
// systems, tracing which component enforced the policy.
func printFigure1() error {
	fmt.Println("Figure 1: the mount system call on Linux vs Protego")
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			return err
		}
		fmt.Printf("\n--- %s ---\n", strings.ToUpper(mode.String()))
		alice, err := m.Session("alice")
		if err != nil {
			return err
		}
		if mode == kernel.ModeLinux {
			fmt.Println("  [user alice] exec /bin/mount (setuid bit: process becomes euid 0)")
			fmt.Println("  [trusted /bin/mount] reads /etc/fstab, checks the 'user' option itself")
			fmt.Println("  [trusted /bin/mount] issues mount(2) with CAP_SYS_ADMIN")
		} else {
			fmt.Println("  [trusted protegod] copied /etc/fstab -> /proc/protego/mounts, where the kernel parses it")
			fmt.Println("  [user alice] exec /bin/mount (no setuid bit: stays uid 1000)")
			fmt.Println("  [untrusted /bin/mount] issues mount(2) without privilege")
			fmt.Println("  [kernel LSM] checks arguments against the in-kernel whitelist")
		}
		code, out, errOut, _ := m.Run(alice, []string{userspace.BinMount, "/dev/cdrom", "/cdrom"}, nil)
		fmt.Printf("  mount /dev/cdrom /cdrom  -> exit %d, %s", code, firstLine(out+errOut))
		code, _, errOut, _ = m.Run(alice, []string{userspace.BinMount, "/dev/sdc1", "/mnt/backup"}, nil)
		fmt.Printf("  mount /dev/sdc1 /mnt/backup (not whitelisted) -> exit %d, %s", code, firstLine(errOut))
		if mode == kernel.ModeProtego {
			fmt.Println("  audit trail:")
			for _, line := range m.K.AuditLog() {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i+1]
	}
	return s + "\n"
}
