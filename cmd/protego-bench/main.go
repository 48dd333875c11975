// Command protego-bench regenerates every table and figure of the paper's
// evaluation from the simulation:
//
//	protego-bench -table 1     summary of results
//	protego-bench -table 2     lines of code per component
//	protego-bench -table 3     setuid package installation statistics
//	protego-bench -table 4     the interface policy study
//	protego-bench -table 5     performance overheads (lmbench-style + macro)
//	protego-bench -table 6     historical vulnerabilities, contained
//	protego-bench -table 7     functional equivalence of the utilities
//	protego-bench -table 8     the long tail of remaining setuid binaries
//	protego-bench -figure 1    the mount control-flow comparison
//	protego-bench -all         everything
//	protego-bench -cve ID      one Table 6 CVE with a per-action log
//
// Table 5 reports each row as the median of alternating rounds on the
// two kernels, with an order-statistic 95% CI; a micro row's round calls
// its one-op closure from bench.Table5Ops as often as fits in about half
// a millisecond. Table 1's worst-overhead line reads the same micro rows.
// -quick shrinks the macro workloads for a fast smoke run. -faults runs the
// deterministic fault-injection sweep (seeded by -faultseed) over both
// configurations instead of the tables, exiting non-zero on any panic,
// fail-open decision, or failed recovery. -difffuzz N runs N differential
// syscall-fuzzing traces (seeded by -difffuzzseed) against a
// baseline/Protego clone pair each, reporting step and divergence counts
// and exiting non-zero on any unexplained divergence or invariant
// violation. -seccomp tabulates the per-binary syscall attack-surface
// reduction from the committed golden allowlists and exits non-zero
// unless arming seccomp adds only the TaskSyscall check (no extra
// allocations; one lsm.syscall.allow per syscall).
// -vulngen N generates N misconfigured environments (seeded by
// -vulngenseed) and replays the full CVE corpus inside each on mutated
// baseline/Protego snapshot pairs, exiting non-zero on any uncontained
// escalation, invariant violation, or unexplained baseline non-escalation.
//
// Parallel scaling and lock contention are go test benchmarks:
//
//	go test -run '^$' -bench BenchmarkParallel -cpu 1,2,4,8 -mutexprofile m.out ./internal/bench
package main

import (
	"flag"
	"fmt"
	"os"

	"protego/internal/bench"
	"protego/internal/core"
	"protego/internal/equiv"
	"protego/internal/exploits"
	"protego/internal/kernel"
	"protego/internal/survey"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (1-8)")
	figure := flag.Int("figure", 0, "figure number to regenerate (1)")
	all := flag.Bool("all", false, "regenerate everything")
	quick := flag.Bool("quick", false, "reduced workload sizes")
	repo := flag.String("repo", ".", "repository root for line counting (table 2)")
	faults := flag.Bool("faults", false, "run the deterministic fault-injection sweep over both configurations")
	faultSeed := flag.Int64("faultseed", 42, "seed for the fault-injection sweep (fixes torn-read offsets)")
	diffFuzz := flag.Int("difffuzz", 0, "run N differential-fuzzing traces (baseline vs Protego) instead of the tables")
	diffFuzzSeed := flag.Int64("difffuzzseed", 1, "seed for the differential-fuzzing trace generator")
	seccompMode := flag.Bool("seccomp", false, "report per-binary syscall attack-surface reduction; fail if arming seccomp adds more than the TaskSyscall check")
	vulgenN := flag.Int("vulngen", 0, "generate N misconfigured environments and replay the full CVE corpus inside each")
	vulgenSeed := flag.Int64("vulngenseed", 1, "seed for the vulnerable-environment generator")
	cveID := flag.String("cve", "", "run a single CVE with per-action detail")
	flag.Parse()

	if *cveID != "" {
		printCVE(*cveID)
		return
	}

	if *faults {
		linux, err := bench.RunFaultSweep(kernel.ModeLinux, *faultSeed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "protego-bench: faults (linux): %v\n", err)
			os.Exit(1)
		}
		protego, err := bench.RunFaultSweep(kernel.ModeProtego, *faultSeed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "protego-bench: faults (protego): %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.FormatFaultSweep(linux, protego))
		bad := len(linux.Panics()) + len(linux.FailOpens()) + len(linux.LivenessFailures()) +
			len(protego.Panics()) + len(protego.FailOpens()) + len(protego.LivenessFailures())
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "protego-bench: faults: %d safety violations\n", bad)
			os.Exit(1)
		}
		return
	}

	if *diffFuzz > 0 {
		rep, err := bench.RunDiffFuzz(*diffFuzz, *diffFuzzSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "protego-bench: difffuzz: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.FormatDiffFuzz(rep))
		if !rep.Clean() {
			fmt.Fprintf(os.Stderr, "protego-bench: difffuzz: %d unexplained divergences, %d invariant violations\n",
				rep.UnexplainedDivergences, rep.InvariantViolations)
			os.Exit(1)
		}
		return
	}

	if *vulgenN > 0 {
		rep, err := bench.RunVulngen(*vulgenN, *vulgenSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "protego-bench: vulngen: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.FormatVulngen(rep))
		if !rep.Clean() {
			fmt.Fprintf(os.Stderr, "protego-bench: vulngen: %d uncontained escalations across %d environments\n",
				rep.Uncontained, rep.Environments)
			os.Exit(1)
		}
		return
	}

	if *seccompMode {
		rep, err := bench.MeasureSeccomp()
		if err != nil {
			fmt.Fprintf(os.Stderr, "protego-bench: seccomp: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.FormatSeccomp(rep))
		if !rep.GatePassed {
			fmt.Fprintln(os.Stderr, "protego-bench: seccomp: arming seccomp adds more than the TaskSyscall check (see the gate lines above)")
			os.Exit(1)
		}
		return
	}

	run := func(n int, fn func() error) {
		if *all || *table == n {
			if err := fn(); err != nil {
				fmt.Fprintf(os.Stderr, "protego-bench: table %d: %v\n", n, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}

	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}

	run(1, func() error { return printTable1(*quick) })
	run(2, func() error { return printTable2(*repo) })
	run(3, func() error { fmt.Print(survey.FormatTable3()); return nil })
	run(4, func() error { fmt.Print(core.FormatCatalog()); return nil })
	run(5, func() error { return printTable5(*quick) })
	run(6, func() error { return printTable6() })
	run(7, func() error { return printTable7() })
	run(8, func() error { fmt.Print(survey.FormatTable8()); return nil })

	if *all || *figure == 1 {
		if err := printFigure1(); err != nil {
			fmt.Fprintf(os.Stderr, "protego-bench: figure 1: %v\n", err)
			os.Exit(1)
		}
	}
}

func printTable5(quick bool) error {
	cfg := bench.DefaultTable5Config()
	if quick {
		cfg.PostalMessages = 30
		cfg.CompileFiles = 50
		cfg.WebRequests = 100
		cfg.WebConcurrency = []int{25, 50}
	}
	rows, err := bench.RunTable5(cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable5(rows))
	return nil
}

func printTable6() error {
	fmt.Println("Table 6: Historical privilege-escalation vulnerabilities")
	fmt.Printf("%-16s %-22s %-16s %10s %10s\n", "CVE", "Utility", "Class", "Linux", "Protego")
	linux, linuxSum, err := exploits.RunAll(kernel.ModeLinux)
	if err != nil {
		return err
	}
	protego, protegoSum, err := exploits.RunAll(kernel.ModeProtego)
	if err != nil {
		return err
	}
	esc := func(r *exploits.Result) string {
		if r.Escalated {
			return "ESCALATED"
		}
		return "contained"
	}
	for i := range linux {
		fmt.Printf("%-16s %-22s %-16s %10s %10s\n",
			linux[i].CVE.ID, linux[i].CVE.Utility, linux[i].CVE.Class, esc(linux[i]), esc(protego[i]))
	}
	fmt.Printf("\nBaseline escalations: %d/%d   Protego escalations: %d/%d (paper: 40/40 deprivileged)\n",
		linuxSum.Escalated, linuxSum.Total, protegoSum.Escalated, protegoSum.Total)
	return nil
}

// printCVE runs one CVE of the Table 6 corpus on both systems and logs
// each attacker action with its outcome.
func printCVE(id string) {
	for _, c := range exploits.Corpus {
		if c.ID != id {
			continue
		}
		for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
			res, err := exploits.RunCVE(mode, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "protego-bench: cve: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%s on %s: payload euid=%d caps=%s\n", id, mode, res.EUID, res.Caps)
			for _, a := range res.Attempts {
				status := "DENIED: " + a.Err
				if a.Succeeded {
					status = "SUCCEEDED"
				}
				fmt.Printf("  %-40s %s\n", a.Action, status)
			}
			fmt.Println()
		}
		return
	}
	fmt.Fprintf(os.Stderr, "protego-bench: unknown CVE %q\n", id)
	os.Exit(2)
}

func printTable7() error {
	reports, err := equiv.RunAll()
	if err != nil {
		return err
	}
	fmt.Print(equiv.FormatTable7(reports))
	fmt.Println("\nStatement coverage of the utility implementations:")
	fmt.Println("  go test -cover ./internal/userspace ./internal/equiv")
	return nil
}
