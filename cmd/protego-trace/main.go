// Command protego-trace boots a simulated machine, drives a short
// quickstart-style workload through it (mounts on and off the fstab
// whitelist, ping, sudo with a right and a wrong password, a monitord
// resync), and then prints what the kernel tracer saw: the most recent
// events, per-syscall and per-LSM-hook latency histograms, and the
// per-(hook, module, decision) counters.
//
//	protego-trace                  trace a Protego machine
//	protego-trace -mode linux      trace the setuid baseline
//	protego-trace -events 40       show more of the event tail
//	protego-trace -no-workload     boot only; trace just the boot syscalls
//	protego-trace -profiles        print the committed golden syscall profiles
//	protego-trace -profile-diff    record this workload's syscall profile and
//	                               diff it against the committed goldens
//
// The aggregate view is read from /proc/trace/stats *inside* the
// simulation, the same way a user on the machine would read it.
package main

import (
	"flag"
	"fmt"
	"os"

	"protego/internal/kernel"
	"protego/internal/seccomp"
	"protego/internal/seccomp/profiles"
	"protego/internal/userspace"
	"protego/internal/world"
)

func main() {
	modeName := flag.String("mode", "protego", "machine mode: linux or protego")
	events := flag.Int("events", 25, "number of trailing trace events to print")
	noWorkload := flag.Bool("no-workload", false, "skip the demo workload, trace only the boot")
	profilesOnly := flag.Bool("profiles", false, "print the committed golden syscall profiles for -mode and exit")
	profileDiff := flag.Bool("profile-diff", false, "record the workload's observed syscall profile and diff it against the committed goldens")
	flag.Parse()

	mode, err := kernel.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "protego-trace: -mode: %v\n", err)
		os.Exit(2)
	}

	if *profilesOnly {
		os.Stdout.Write(profiles.Raw(mode))
		return
	}
	if *profileDiff {
		if err := runProfileDiff(mode); err != nil {
			fmt.Fprintf(os.Stderr, "protego-trace: profile-diff: %v\n", err)
			os.Exit(1)
		}
		return
	}

	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		fmt.Fprintf(os.Stderr, "protego-trace: %v\n", err)
		os.Exit(1)
	}

	if !*noWorkload {
		if err := runWorkload(m); err != nil {
			fmt.Fprintf(os.Stderr, "protego-trace: workload: %v\n", err)
			os.Exit(1)
		}
	}

	st := m.K.Trace.Stats()
	fmt.Printf("=== protego-trace (%s machine) ===\n", mode)
	fmt.Printf("ring: %d/%d events retained, %d emitted, %d dropped\n\n",
		st.Emitted-st.Dropped, st.Capacity, st.Emitted, st.Dropped)

	fmt.Printf("--- last %d events (tail of /proc/trace) ---\n", *events)
	fmt.Print(m.K.Trace.RenderEvents(*events))

	// Read the aggregate view from inside the simulation: /proc/trace/stats
	// is a read-only proc file any task can open.
	root, err := m.Session("root")
	if err != nil {
		fmt.Fprintf(os.Stderr, "protego-trace: %v\n", err)
		os.Exit(1)
	}
	stats, err := m.K.ReadFile(root, kernel.ProcTraceStats)
	if err != nil {
		fmt.Fprintf(os.Stderr, "protego-trace: read %s: %v\n", kernel.ProcTraceStats, err)
		os.Exit(1)
	}
	fmt.Printf("\n--- %s (read in-simulation) ---\n%s", kernel.ProcTraceStats, stats)

	ds := m.K.FS.DcacheStats()
	fmt.Printf("\nfast paths: dcache %d hits / %d misses (ratio %.4f), %d invalidated, %d cached\n",
		ds.Hits, ds.Misses, ds.HitRatio(), ds.Invalidates, ds.Entries)
}

// runProfileDiff boots a machine with a learning-mode seccomp recorder
// armed, replays the demo workload, and prints the observed per-binary
// syscall profile (in the committed JSON shape) followed by a diff
// against the committed golden for the mode. A syscall observed beyond a
// binary's learned profile means the goldens are stale — the exit status
// reflects it, mirroring the CI drift gate.
func runProfileDiff(mode kernel.Mode) error {
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		return err
	}
	rec := seccomp.NewRecorder(mode.String())
	m.K.LSM.Register(rec)
	if err := runWorkload(m); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	observed := rec.Set()
	data, err := observed.Encode()
	if err != nil {
		return err
	}
	fmt.Printf("--- observed profile (%s workload) ---\n%s", mode, data)

	learned, err := profiles.Load(mode)
	if err != nil {
		return err
	}
	fmt.Printf("\n--- observed vs committed golden (%s) ---\n", mode)
	stale := 0
	for _, bin := range observed.Binaries() {
		obs := observed.For(bin)
		gold := learned.For(bin)
		if gold == nil {
			fmt.Printf("%s: unprofiled binary (machine union applies)\n", bin)
			continue
		}
		var beyond, unexercised []string
		for _, sn := range kernel.Sysnos() {
			switch {
			case obs.Allows(sn) && !gold.Allows(sn):
				beyond = append(beyond, "+"+sn.String())
			case !obs.Allows(sn) && gold.Allows(sn):
				unexercised = append(unexercised, "-"+sn.String())
			}
		}
		stale += len(beyond)
		fmt.Printf("%s: %d observed / %d learned", bin, obs.Len(), gold.Len())
		for _, d := range append(beyond, unexercised...) {
			fmt.Printf(" %s", d)
		}
		fmt.Println()
	}
	if stale > 0 {
		return fmt.Errorf("%d syscalls observed beyond the learned profiles; regenerate with: "+
			"go test ./internal/seccomp/profiler -run TestGoldenProfilesUpToDate -args -update", stale)
	}
	fmt.Println("no syscall observed beyond its learned profile")
	return nil
}

// runWorkload replays the quickstart scenario so every producer emits:
// syscall dispatch, LSM hooks, netfilter verdicts, authsvc checks, and a
// monitord sync cycle.
func runWorkload(m *world.Machine) error {
	alice, err := m.Session("alice")
	if err != nil {
		return err
	}
	run := func(password string, argv ...string) {
		var asker func(string) string
		if password != "" {
			asker = world.AnswerWith(password)
		}
		// Exit codes and output are deliberately discarded: denials are
		// part of the workload and show up in the trace instead.
		_, _, _, _ = m.Run(alice, argv, asker)
	}

	run("", userspace.BinMount, "/dev/cdrom", "/cdrom")        // on the whitelist
	run("", userspace.BinMount, "/dev/sdc1", "/mnt/backup")    // off the whitelist
	run("", userspace.BinPing, "-c", "2", "10.0.0.2")          // raw ICMP through netfilter
	run(world.AlicePassword, userspace.BinSudo, "/usr/bin/id") // password auth, ok
	run("wrong-password", userspace.BinSudo, "/usr/bin/id")    // password auth, fail

	// One policy push, so monitord sync latency appears in the trace.
	if m.Monitor != nil {
		return m.Monitor.SyncMounts()
	}
	return nil
}
