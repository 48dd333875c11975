package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/kernel"
	"protego/internal/monitord"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/world"
)

// FaultCase is one (site, action, errno) combination from the injection
// catalog, exercised against a fresh machine.
type FaultCase struct {
	Site   string
	Action faultinject.Action
	Err    errno.Errno
}

func (c FaultCase) String() string {
	if c.Action == faultinject.ActErr {
		return fmt.Sprintf("%s/%s", c.Site, c.Err.Name())
	}
	return fmt.Sprintf("%s/%s", c.Site, strings.ToUpper(c.Action.String()))
}

// FaultCaseResult is the outcome of one case.
type FaultCaseResult struct {
	FaultCase
	// Injected is the total number of firings (workload + probes).
	Injected uint64
	// Records is the workload-phase injection log (the replay artifact).
	Records []faultinject.Record
	// Panic is the recovered panic message, if the workload panicked.
	Panic string
	// FailOpen lists fail-closed violations observed while faults were
	// armed: operations that must deny but were granted.
	FailOpen []string
	// Liveness lists operations that should have recovered after the
	// injector was disabled but still failed.
	Liveness []string
}

// FaultSweepResult aggregates a full sweep for one configuration.
type FaultSweepResult struct {
	Mode  kernel.Mode
	Seed  int64
	Cases []FaultCaseResult
}

// InjectedSites returns the distinct sites that fired at least once,
// sorted.
func (r *FaultSweepResult) InjectedSites() []string {
	seen := make(map[string]bool)
	for i := range r.Cases {
		if r.Cases[i].Injected > 0 {
			seen[r.Cases[i].Site] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Panics returns the cases whose workload panicked.
func (r *FaultSweepResult) Panics() []FaultCaseResult {
	var out []FaultCaseResult
	for i := range r.Cases {
		if r.Cases[i].Panic != "" {
			out = append(out, r.Cases[i])
		}
	}
	return out
}

// FailOpens returns every fail-closed violation across the sweep.
func (r *FaultSweepResult) FailOpens() []string {
	var out []string
	for i := range r.Cases {
		for _, v := range r.Cases[i].FailOpen {
			out = append(out, r.Cases[i].String()+": "+v)
		}
	}
	return out
}

// LivenessFailures returns every post-fault recovery failure.
func (r *FaultSweepResult) LivenessFailures() []string {
	var out []string
	for i := range r.Cases {
		for _, v := range r.Cases[i].Liveness {
			out = append(out, r.Cases[i].String()+": "+v)
		}
	}
	return out
}

// FaultCases expands the injection catalog into the case list. quick
// keeps only the first errno per error site (the full list sweeps every
// catalogued errno).
func FaultCases(quick bool) []FaultCase {
	var out []FaultCase
	for _, spec := range faultinject.Catalog() {
		for _, act := range spec.Actions {
			if act != faultinject.ActErr {
				out = append(out, FaultCase{Site: spec.Name, Action: act})
				continue
			}
			for i, e := range spec.Errnos {
				if quick && i > 0 {
					break
				}
				out = append(out, FaultCase{Site: spec.Name, Action: act, Err: e})
			}
		}
	}
	return out
}

// RunFaultSweep exercises every catalogued fault case against fresh
// machines of the given mode. Each case arms an injector that fires on
// every hit of its target site, runs the full-coverage workload under
// panic recovery, probes that policy decisions stay fail-closed while
// faults are still firing, then disables the injector and checks the
// machine recovered. The seed fixes torn-read offsets so the sweep
// replays identically.
func RunFaultSweep(mode kernel.Mode, seed int64, quick bool) (*FaultSweepResult, error) {
	res := &FaultSweepResult{Mode: mode, Seed: seed}
	for _, c := range FaultCases(quick) {
		cr, err := runFaultCase(mode, seed, c)
		if err != nil {
			return nil, fmt.Errorf("fault case %s: %v", c, err)
		}
		res.Cases = append(res.Cases, cr)
	}
	return res, nil
}

func runFaultCase(mode kernel.Mode, seed int64, c FaultCase) (FaultCaseResult, error) {
	out := FaultCaseResult{FaultCase: c}
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		return out, err
	}
	// Sessions are created before the injector is armed so probe setup
	// itself cannot be starved by the fault under test.
	root, err := m.Session("root")
	if err != nil {
		return out, err
	}
	alice, err := m.Session("alice")
	if err != nil {
		return out, err
	}

	in := faultinject.New(faultinject.Plan{Seed: seed, Rules: []faultinject.Rule{
		{Site: c.Site, Action: c.Action, Err: c.Err},
	}})
	m.SetFaultInjector(in)

	func() {
		defer func() {
			if r := recover(); r != nil {
				out.Panic = fmt.Sprint(r)
			}
		}()
		faultWorkload(m, root)
	}()
	out.Records = in.Records()

	// Fail-closed probes run with the fault still firing: an injected
	// fault may turn a grant into a denial, never a denial into a grant.
	out.FailOpen = failClosedProbes(m, alice)

	in.SetEnabled(false)
	out.Injected = in.Injections()
	out.Liveness = livenessProbes(m, alice)
	return out, nil
}

// faultWorkload drives one pass over every injection site: file syscalls
// and VFS operations, mount/umount, exec, setuid, socket creation and all
// three netstack send paths, the five monitord reload paths, and the
// authentication service. Errors are deliberately ignored — the workload
// asserts survival (no panic, no deadlock), not success.
func faultWorkload(m *world.Machine, root *kernel.Task) {
	k := m.K
	_ = k.Mkdir(root, "/tmp/fi", 0o755)
	_ = k.WriteFile(root, "/tmp/fi/a", []byte("payload"))
	if fd, err := k.Open(root, "/tmp/fi/a", kernel.O_RDONLY); err == nil {
		_, _ = k.Read(root, fd, 4)
		_ = k.CloseFD(root, fd)
	}
	if fd, err := k.Open(root, "/tmp/fi/created", kernel.O_CREAT|kernel.O_WRONLY); err == nil {
		_, _ = k.Write(root, fd, []byte("x"))
		_ = k.CloseFD(root, fd)
	}
	_, _ = k.ReadFile(root, "/tmp/fi/a")
	_ = k.Rename(root, "/tmp/fi/a", "/tmp/fi/b")
	_ = k.Unlink(root, "/tmp/fi/b")

	_ = k.Mount(root, "/dev/cdrom", "/cdrom", "iso9660", []string{"ro"})
	_ = k.Umount(root, "/cdrom")

	_, _ = k.Spawn(root, userspace.BinSh, []string{userspace.BinSh}, nil, kernel.SpawnOpts{})

	child := k.Fork(root)
	_ = k.Setuid(child, world.UIDAlice)
	k.Exit(child, 0)

	if s, err := k.Socket(root, netstack.AF_INET, netstack.SOCK_DGRAM, netstack.IPPROTO_UDP); err == nil {
		if k.Bind(root, s, 9191) == nil {
			pkt := &netstack.Packet{Dst: k.Net.HostIP(), DstPort: 9191, Payload: []byte("fi")}
			_ = k.SendTo(root, s, pkt)
			_ = k.SendTo(root, s, &netstack.Packet{Dst: k.Net.HostIP(), DstPort: 9191, Payload: []byte("fi2")})
		}
		_ = k.CloseSocket(root, s)
	}
	if srv, err := k.Socket(root, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP); err == nil {
		if k.Bind(root, srv, 8088) == nil && k.Listen(root, srv, 8) == nil {
			if cl, err := k.Socket(root, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP); err == nil {
				if k.Connect(root, cl, k.Net.HostIP(), 8088) == nil {
					if conn, err := k.Accept(root, srv, 200*time.Millisecond); err == nil {
						_, _ = k.Send(root, cl, []byte("ping"))
						_, _ = k.Send(root, cl, []byte("pong"))
						_ = k.CloseSocket(root, conn)
					}
				}
				_ = k.CloseSocket(root, cl)
			}
		}
		_ = k.CloseSocket(root, srv)
	}

	d := m.Monitor
	if d == nil {
		// The baseline has no daemon; a throwaway one still exercises the
		// config-read sites (its /proc pushes fail harmlessly).
		d = monitord.New(k, nil)
	}
	_ = d.SyncMounts()
	_ = d.SyncDelegation()
	_ = d.SyncBind()
	_ = d.SyncPPP()
	_ = d.SyncAccountsToFragments()
	_ = d.SyncAccountsFromFragments()

	_ = m.Auth.VerifyPassword("alice", world.AlicePassword)
}

// failClosedProbes checks decisions that must deny whatever faults are
// active. Each returned string is a violation: an operation that was
// granted under fault injection.
func failClosedProbes(m *world.Machine, alice *kernel.Task) []string {
	var bad []string
	// /dev/sdc1 -> /mnt/backup is in fstab without the user option:
	// unprivileged mount must fail in both configurations.
	if err := m.K.Mount(alice, "/dev/sdc1", "/mnt/backup", "ext4", nil); err == nil {
		bad = append(bad, "unprivileged mount of non-user fstab entry succeeded")
		_ = m.K.Umount(alice, "/mnt/backup")
	}
	if _, err := m.K.ReadFile(alice, "/etc/shadow"); err == nil {
		bad = append(bad, "unprivileged read of /etc/shadow succeeded")
	}
	if m.Auth.VerifyPassword("alice", "not-the-password") {
		bad = append(bad, "wrong password verified")
	}
	if sock, err := m.K.Socket(alice, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP); err == nil {
		if err := m.K.Bind(alice, sock, 25); err == nil {
			bad = append(bad, "unprivileged bind to port 25 succeeded")
		}
		_ = m.K.CloseSocket(alice, sock)
	}
	return bad
}

// livenessProbes checks that ordinary allowed operations work again once
// the injector is disabled — the machine must degrade, not break.
func livenessProbes(m *world.Machine, alice *kernel.Task) []string {
	var bad []string
	if _, err := m.K.ReadFile(alice, "/etc/motd"); err != nil {
		bad = append(bad, "read /etc/motd: "+err.Error())
	}
	if err := m.K.WriteFile(alice, "/home/alice/fi-live", []byte("ok")); err != nil {
		bad = append(bad, "write home file: "+err.Error())
	} else if _, err := m.K.ReadFile(alice, "/home/alice/fi-live"); err != nil {
		bad = append(bad, "read back home file: "+err.Error())
	}
	if !m.Auth.VerifyPassword("alice", world.AlicePassword) {
		bad = append(bad, "correct password no longer verifies")
	}
	res, err := m.K.Spawn(alice, userspace.BinSh, []string{userspace.BinSh}, nil, kernel.SpawnOpts{})
	if err != nil || res.Code != 0 {
		bad = append(bad, fmt.Sprintf("spawn sh: code=%d err=%v", res.Code, err))
	}
	return bad
}

// FormatFaultSweep renders both sweeps as the protego-bench -faults
// report.
func FormatFaultSweep(linux, protego *FaultSweepResult) string {
	var b strings.Builder
	b.WriteString("Fault-injection sweep (deterministic, seed-fixed)\n")
	for _, r := range []*FaultSweepResult{linux, protego} {
		if r == nil {
			continue
		}
		sites := r.InjectedSites()
		var injected uint64
		for i := range r.Cases {
			injected += r.Cases[i].Injected
		}
		fmt.Fprintf(&b, "\n%-8s seed=%d cases=%d injections=%d distinct-sites=%d\n",
			r.Mode, r.Seed, len(r.Cases), injected, len(sites))
		fmt.Fprintf(&b, "  panics=%d fail-open=%d liveness-failures=%d\n",
			len(r.Panics()), len(r.FailOpens()), len(r.LivenessFailures()))
		for _, p := range r.Panics() {
			fmt.Fprintf(&b, "  PANIC %s: %s\n", p.String(), p.Panic)
		}
		for _, v := range r.FailOpens() {
			fmt.Fprintf(&b, "  FAIL-OPEN %s\n", v)
		}
		for _, v := range r.LivenessFailures() {
			fmt.Fprintf(&b, "  NO-RECOVERY %s\n", v)
		}
	}
	return b.String()
}
