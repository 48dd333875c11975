package difffuzz

import (
	"fmt"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/seccomp"
	"protego/internal/userspace"
	"protego/internal/world"
)

// Config selects the ablations (and the deliberate-vulnerability hook used
// by the harness's self-test) a run executes under.
type Config struct {
	// DcacheOff disables the VFS dentry cache on both machines — the
	// fuzzer must see identical behavior with the fast path off.
	DcacheOff bool
	// BreakMountPolicy flips the core.Module test hook that grants every
	// unprivileged mount on the Protego image. Runs with this set MUST
	// fail; it proves the harness detects a broken policy.
	BreakMountPolicy bool
	// SeccompAudit, when non-nil, installs the learned syscall profiles
	// on the Protego image in audit mode and turns any observed
	// out-of-profile syscall into a "seccomp-profile" violation: the
	// standing invariant that no utility ever exceeds its learned
	// profile. Audit mode records instead of denying, so the trace under
	// test executes identically with or without the invariant armed.
	SeccompAudit *seccomp.ProfileSet

	// afterStep, when set, runs on both images after each step, before
	// they are compared. Tests plant through it the state changes a
	// correct image never makes, to check how they are reported.
	afterStep func(step int, lin, pro *world.Machine)
}

// Divergence is an unexplained behavioral difference between the images.
type Divergence struct {
	Step   int    // index into the trace
	Op     Op     // the operation that diverged
	Detail string // what differed
}

// Violation is a breach of a standing Protego security invariant; it is
// reported even when the two images agree with each other.
type Violation struct {
	Step      int
	Invariant string
	Detail    string
}

// Result summarizes one trace execution.
type Result struct {
	// Steps executed before stopping (the full trace unless it failed).
	Steps int
	// Divergence is the first unexplained mismatch, nil if none.
	Divergence *Divergence
	// Violations are the Protego invariant breaches observed.
	Violations []Violation
	// Explained counts by-design divergences that were reconciled: a
	// policy-authorized unprivileged operation succeeding on Protego
	// where the baseline requires the setuid helper's root privilege.
	Explained int
}

// Failed reports whether the trace found a bug (divergence or violation).
func (r *Result) Failed() bool {
	return r.Divergence != nil || len(r.Violations) > 0
}

func (r *Result) String() string {
	if !r.Failed() {
		return fmt.Sprintf("ok: %d steps, %d explained divergences", r.Steps, r.Explained)
	}
	s := fmt.Sprintf("FAILED after step %d:", r.Steps)
	if r.Divergence != nil {
		s += fmt.Sprintf(" divergence at step %d (%s): %s", r.Divergence.Step, r.Divergence.Op, r.Divergence.Detail)
	}
	for _, v := range r.Violations {
		s += fmt.Sprintf(" invariant %s at step %d: %s", v.Invariant, v.Step, v.Detail)
	}
	return s
}

// machineCtx is the per-image execution state of a trace.
type machineCtx struct {
	m        *world.Machine
	sessions []*kernel.Task
	socks    [socketSlots]*netstack.Socket
	// secAudit is the audit-mode seccomp module watching this machine
	// (Protego image with Config.SeccompAudit set only).
	secAudit *seccomp.Module
}

// newMachineCtx stamps one image for a trace run from the mode's golden
// snapshot. prep, when non-nil, runs after the ablations and before the
// actor sessions are created — the profiler installs its recorder there,
// so session-setup syscalls are observed at exactly the point an
// enforcing module would mediate them.
func newMachineCtx(mode kernel.Mode, cfg Config, prep func(*world.Machine)) (*machineCtx, error) {
	snap, err := world.Golden(mode)
	if err != nil {
		return nil, err
	}
	m, err := snap.Clone()
	if err != nil {
		return nil, err
	}
	m.K.FS.SetDcacheEnabled(!cfg.DcacheOff)
	if cfg.BreakMountPolicy && m.Protego != nil {
		m.Protego.TestHookBreakMountPolicy(true)
	}
	c := &machineCtx{m: m}
	if cfg.SeccompAudit != nil && mode == kernel.ModeProtego {
		c.secAudit = seccomp.NewModule(cfg.SeccompAudit, true)
		m.K.LSM.Register(c.secAudit)
		m.K.SetSyscallGate(true)
	}
	if prep != nil {
		prep(m)
	}
	for _, name := range actors {
		sess, err := m.Session(name)
		if err != nil {
			return nil, err
		}
		c.sessions = append(c.sessions, sess)
	}
	return c, nil
}

func (c *machineCtx) sess(actor uint8) *kernel.Task {
	return c.sessions[int(actor)%len(c.sessions)]
}

// asRoot runs f as a transient root task (the stand-in for the setuid
// helper the baseline image would have used), then reaps it so the task
// table converges again.
func (c *machineCtx) asRoot(f func(root *kernel.Task) error) error {
	root := c.m.K.Fork(c.m.Init)
	defer c.m.K.Exit(root, 0)
	return f(root)
}

// stepOutcome is what one executed step reports back to the trace loop.
type stepOutcome struct {
	// strict marks ops whose errno must agree across images AND whose
	// failure must leave the Protego image unchanged (fail-closed).
	strict bool
	proErr error
	// unexplained, when non-empty, is an immediate divergence (errno
	// mismatch on a strict op, utility output mismatch, or a failed
	// reconciliation); the post-step fingerprint comparison catches
	// everything else.
	unexplained string
}

// Run executes the trace step-by-step on a fresh baseline/Protego image
// pair, comparing state fingerprint digests after every step, reconciling
// by-design privilege relaxations, and checking the standing invariants
// on the Protego image. It stops at the first failure, whose report shows
// the differing lines of the two FingerprintText renderings.
func Run(tr Trace, cfg Config) (*Result, error) {
	res, _, err := run(tr, cfg)
	return res, err
}

// run is Run, also returning the Protego image as the trace left it.
func run(tr Trace, cfg Config) (*Result, *machineCtx, error) {
	lin, err := newMachineCtx(kernel.ModeLinux, cfg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("difffuzz: build baseline: %w", err)
	}
	pro, err := newMachineCtx(kernel.ModeProtego, cfg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("difffuzz: build protego: %w", err)
	}
	res := &Result{}
	prevProFP := pro.m.Fingerprint()
	for i, s := range tr {
		out := execStep(lin, pro, s, res, i)
		if cfg.afterStep != nil {
			cfg.afterStep(i, lin.m, pro.m)
		}
		res.Steps = i + 1
		if out.unexplained != "" {
			res.Divergence = &Divergence{Step: i, Op: s.Op, Detail: out.unexplained}
			return res, pro, nil
		}
		proFP := pro.m.Fingerprint()
		if lin.m.Fingerprint() != proFP {
			res.Divergence = &Divergence{Step: i, Op: s.Op, Detail: "state fingerprints differ:\n" +
				world.DiffText(lin.m.FingerprintText(), pro.m.FingerprintText(), "linux-only", "protego-only")}
			return res, pro, nil
		}
		// Invariant 4 (fail closed): a denied strict operation must not
		// have moved the Protego image at all.
		if out.strict && out.proErr != nil && proFP != prevProFP {
			res.Violations = append(res.Violations, Violation{Step: i, Invariant: "fail-closed",
				Detail: fmt.Sprintf("%s failed with %v but changed state:\n%s",
					s.Op, out.proErr, stepChange(tr[:i], cfg, pro))})
		}
		checkTaskInvariant(pro, i, res)
		checkMountInvariant(pro, i, res)
		drainSeccompViolations(pro, i, res)
		if len(res.Violations) > 0 {
			return res, pro, nil
		}
		prevProFP = proFP
	}
	return res, pro, nil
}

// stepChange renders what the step after prefix changed on the Protego
// image pro. Run keeps only the digest of the state before the step, so
// the prefix is run again on a fresh pair for its text: runs are
// deterministic, as shrinking relies on too.
func stepChange(prefix Trace, cfg Config, pro *machineCtx) string {
	_, before, err := run(prefix, cfg)
	if err != nil {
		return fmt.Sprintf("  (state before the step unavailable: %v)", err)
	}
	return world.DiffText(before.m.FingerprintText(), pro.m.FingerprintText(), "before", "after")
}

// drainSeccompViolations converts audit-mode profile breaches observed up
// to (and including) step idx into "seccomp-profile" violations.
func drainSeccompViolations(pro *machineCtx, idx int, res *Result) {
	if pro.secAudit == nil {
		return
	}
	for _, v := range pro.secAudit.TakeViolations() {
		res.Violations = append(res.Violations, Violation{Step: idx, Invariant: "seccomp-profile",
			Detail: fmt.Sprintf("pid=%d bin=%s issued %s outside its learned profile",
				v.PID, v.Binary, v.Sysno)})
	}
}

// Replay executes the trace on a fresh golden-image pair with no
// fingerprint comparison or invariant checking — the cheap drive the
// seccomp profiler uses to push the difffuzz corpus through instrumented
// machines. prep receives each machine before its sessions are created.
func Replay(tr Trace, prep func(*world.Machine)) error {
	lin, err := newMachineCtx(kernel.ModeLinux, Config{}, prep)
	if err != nil {
		return fmt.Errorf("difffuzz: build baseline: %w", err)
	}
	pro, err := newMachineCtx(kernel.ModeProtego, Config{}, prep)
	if err != nil {
		return fmt.Errorf("difffuzz: build protego: %w", err)
	}
	res := &Result{}
	for i, s := range tr {
		_ = execStep(lin, pro, s, res, i)
	}
	return nil
}

// execStep applies one step to both machines and performs the op-specific
// comparison and reconciliation.
func execStep(lin, pro *machineCtx, s Step, res *Result, idx int) stepOutcome {
	switch s.Op {
	case OpForkExit:
		for _, c := range []*machineCtx{lin, pro} {
			child := c.m.K.Fork(c.sess(s.Actor))
			c.m.K.Exit(child, 0)
		}
		return stepOutcome{strict: true}

	case OpRead:
		path := pick(filePaths, s.A)
		_, errL := lin.m.K.ReadFile(lin.sess(s.Actor), path)
		_, errP := pro.m.K.ReadFile(pro.sess(s.Actor), path)
		return strictOutcome(s, errL, errP)

	case OpWrite:
		path := pick(filePaths, s.A)
		data := []byte(fmt.Sprintf("fuzz %d %d", s.Actor, s.B))
		errL := lin.m.K.WriteFile(lin.sess(s.Actor), path, data)
		errP := pro.m.K.WriteFile(pro.sess(s.Actor), path, data)
		return strictOutcome(s, errL, errP)

	case OpChmod:
		path, mode := pick(filePaths, s.A), pick(fileModes, s.B)
		errL := lin.m.K.Chmod(lin.sess(s.Actor), path, mode)
		errP := pro.m.K.Chmod(pro.sess(s.Actor), path, mode)
		return strictOutcome(s, errL, errP)

	case OpChown:
		path, uid := pick(filePaths, s.A), pick(poolUIDs, s.B)
		errL := lin.m.K.Chown(lin.sess(s.Actor), path, uid, -1)
		errP := pro.m.K.Chown(pro.sess(s.Actor), path, uid, -1)
		return strictOutcome(s, errL, errP)

	case OpSetuid, OpSeteuid:
		return execCredStep(lin, pro, s, res)

	case OpMkdir:
		path := pick(dirPaths, s.A)
		errL := lin.m.K.Mkdir(lin.sess(s.Actor), path, 0o755)
		errP := pro.m.K.Mkdir(pro.sess(s.Actor), path, 0o755)
		return strictOutcome(s, errL, errP)

	case OpUnlink:
		path := pick(filePaths, s.A)
		errL := lin.m.K.Unlink(lin.sess(s.Actor), path)
		errP := pro.m.K.Unlink(pro.sess(s.Actor), path)
		return strictOutcome(s, errL, errP)

	case OpMount:
		spec := pick(mountSpecs, s.A)
		errL := lin.m.K.Mount(lin.sess(s.Actor), spec.device, spec.point, spec.fstype, spec.options)
		errP := pro.m.K.Mount(pro.sess(s.Actor), spec.device, spec.point, spec.fstype, spec.options)
		out := reconcile(lin, res, errL, errP, fmt.Sprintf("mount %s %s", spec.device, spec.point),
			func(root *kernel.Task) error {
				return lin.m.K.Mount(root, spec.device, spec.point, spec.fstype, spec.options)
			})
		if out.unexplained == "" && errP == nil && errL != nil {
			// The replay ran as root, but setuid mount(8) records the
			// invoking user in mtab so that user may unmount later; mirror
			// that, or the images' umount policies drift apart.
			if mnt := lin.m.K.FS.MountAt(spec.point); mnt != nil {
				mnt.MountedBy = lin.sess(s.Actor).UID()
				mnt.UserMount = true
			}
		}
		return out

	case OpUmount:
		point := pick(umountPoints, s.A)
		errL := lin.m.K.Umount(lin.sess(s.Actor), point)
		errP := pro.m.K.Umount(pro.sess(s.Actor), point)
		return reconcile(lin, res, errL, errP, "umount "+point,
			func(root *kernel.Task) error { return lin.m.K.Umount(root, point) })

	case OpSocket:
		return execSocketStep(lin, pro, s, res)

	case OpBind:
		slot := int(s.A) % socketSlots
		port := pick(bindPorts, s.B)
		sockL, sockP := lin.socks[slot], pro.socks[slot]
		// Raw slots exist only on Protego (the §4.1.1 relaxation) and
		// never bind: binding them would register a port reservation on
		// one image only and every later fingerprint would "diverge".
		if sockL == nil || sockP == nil || sockL.IsRaw() || sockP.IsRaw() {
			return stepOutcome{}
		}
		errL := lin.m.K.Bind(lin.sess(s.Actor), sockL, port)
		errP := pro.m.K.Bind(pro.sess(s.Actor), sockP, port)
		return strictOutcome(s, errL, errP)

	case OpSendTo:
		return execSendToStep(lin, pro, s, res)

	case OpCloseSock:
		slot := int(s.A) % socketSlots
		var errL, errP error
		if sock := lin.socks[slot]; sock != nil {
			errL = lin.m.K.CloseSocket(lin.sess(s.Actor), sock)
			lin.socks[slot] = nil
		}
		if sock := pro.socks[slot]; sock != nil {
			errP = pro.m.K.CloseSocket(pro.sess(s.Actor), sock)
			pro.socks[slot] = nil
		}
		if (errL == nil) != (errP == nil) && lin.socks[slot] != nil && pro.socks[slot] != nil {
			return stepOutcome{unexplained: fmt.Sprintf("close: linux=%v protego=%v", errL, errP)}
		}
		return stepOutcome{}

	case OpIoctl:
		return execIoctlStep(lin, pro, s, res, idx)

	case OpUtility:
		argv := pick(utilityArgvs, s.A)
		asker := func(string) string { return "fuzz-wrong-password" }
		codeL, outL, _, _ := lin.m.Run(lin.sess(s.Actor), argv, asker)
		codeP, outP, _, _ := pro.m.Run(pro.sess(s.Actor), argv, asker)
		if codeL != codeP {
			return stepOutcome{unexplained: fmt.Sprintf("%v: exit linux=%d protego=%d", argv, codeL, codeP)}
		}
		if outL != outP {
			return stepOutcome{unexplained: fmt.Sprintf("%v: stdout linux=%q protego=%q", argv, outL, outP)}
		}
		return stepOutcome{}
	}
	return stepOutcome{}
}

// strictOutcome compares errnos for an op that must behave identically.
func strictOutcome(s Step, errL, errP error) stepOutcome {
	out := stepOutcome{strict: true, proErr: errP}
	if (errL == nil) != (errP == nil) || errno.Of(errL) != errno.Of(errP) {
		out.unexplained = fmt.Sprintf("errno: linux=%v protego=%v", errL, errP)
	}
	return out
}

// reconcile handles the relaxed privileged ops (mount/umount): when
// Protego's policy granted what the baseline kernel refuses to an
// unprivileged caller, the baseline's missing half is the setuid helper —
// replay the operation there with root privilege so the states converge,
// and count the divergence as explained. The policy-correctness of the
// grant itself is judged by the standing invariants, not here.
func reconcile(lin *machineCtx, res *Result, errL, errP error, what string, replay func(*kernel.Task) error) stepOutcome {
	switch {
	case errP == nil && errL != nil:
		if rerr := lin.asRoot(replay); rerr != nil {
			return stepOutcome{unexplained: fmt.Sprintf(
				"%s: protego granted (baseline: %v) but root replay failed: %v", what, errL, rerr)}
		}
		res.Explained++
		return stepOutcome{}
	case errL == nil && errP != nil:
		// An unprivileged caller succeeded on the baseline where Protego
		// refused: Protego lost functionality. The fingerprint comparison
		// will flag the state, but report the errnos too.
		return stepOutcome{unexplained: fmt.Sprintf("%s: baseline succeeded, protego: %v", what, errP)}
	default:
		return stepOutcome{}
	}
}

// execCredStep runs setuid/seteuid inside a disposable child — mirroring
// how the call is always made in practice (post-fork, pre-exec) — so a
// Protego DeferToExec "pending" transition dies with the child instead of
// arming the long-lived session task.
func execCredStep(lin, pro *machineCtx, s Step, res *Result) stepOutcome {
	uid := pick(poolUIDs, s.A)
	call := func(c *machineCtx) error {
		child := c.m.K.Fork(c.sess(s.Actor))
		defer c.m.K.Exit(child, 0)
		if s.Op == OpSetuid {
			return c.m.K.Setuid(child, uid)
		}
		return c.m.K.Seteuid(child, uid)
	}
	errL, errP := call(lin), call(pro)
	if errno.Of(errL) == errno.Of(errP) && (errL == nil) == (errP == nil) {
		return stepOutcome{}
	}
	if errP == nil && errL != nil && s.Op == OpSetuid {
		// By design: the sudoers delegation policy grants (or defers to
		// exec) transitions the baseline kernel refuses without the
		// setuid sudo binary. No state survives the child.
		res.Explained++
		return stepOutcome{}
	}
	return stepOutcome{unexplained: fmt.Sprintf("%s(%d): linux=%v protego=%v", s.Op, uid, errL, errP)}
}

func execSocketStep(lin, pro *machineCtx, s Step, res *Result) stepOutcome {
	slot := int(s.A) % socketSlots
	kind := pick(socketKinds, s.B)
	// Re-creating into an occupied slot closes the old socket first
	// (symmetrically, where present).
	for _, c := range []*machineCtx{lin, pro} {
		if sock := c.socks[slot]; sock != nil {
			_ = c.m.K.CloseSocket(c.sess(s.Actor), sock)
			c.socks[slot] = nil
		}
	}
	sockL, errL := lin.m.K.Socket(lin.sess(s.Actor), kind.family, kind.typ, kind.proto)
	sockP, errP := pro.m.K.Socket(pro.sess(s.Actor), kind.family, kind.typ, kind.proto)
	lin.socks[slot], pro.socks[slot] = sockL, sockP
	if !kind.raw {
		return strictOutcome(s, errL, errP)
	}
	// Raw sockets: Protego grants unprivileged creation (tagged for the
	// netfilter rules); the baseline demands CAP_NET_RAW.
	switch {
	case errP == nil && errL != nil:
		if !sockP.UnprivRaw {
			// Granted but untagged would bypass the filter entirely.
			res.Violations = append(res.Violations, Violation{Invariant: "raw-filter",
				Detail: "unprivileged raw socket granted without UnprivRaw tag"})
		}
		res.Explained++
		return stepOutcome{}
	case errL == nil:
		return stepOutcome{unexplained: fmt.Sprintf("raw socket: baseline granted to unprivileged caller (protego: %v)", errP)}
	default:
		return stepOutcome{}
	}
}

func execSendToStep(lin, pro *machineCtx, s Step, res *Result) stepOutcome {
	slot := int(s.A) % socketSlots
	spec := pick(packetSpecs, s.B)
	dst := pick(packetDsts, s.C)
	mkPkt := func() *netstack.Packet {
		return &netstack.Packet{
			Dst: dst, Proto: spec.proto, DstPort: spec.dstPort,
			ICMPType: spec.icmpType, TTL: 64, Payload: []byte("fuzz"),
		}
	}
	sockL, sockP := lin.socks[slot], pro.socks[slot]
	switch {
	case sockL != nil && sockP != nil:
		errL := lin.m.K.SendTo(lin.sess(s.Actor), sockL, mkPkt())
		errP := pro.m.K.SendTo(pro.sess(s.Actor), sockP, mkPkt())
		out := strictOutcome(s, errL, errP)
		// sendto auto-binds an ephemeral port before routing, so a failed
		// send (EHOSTUNREACH) legitimately leaves state behind; the bind
		// is symmetric and the fingerprint comparison covers it, so exempt
		// this op from the fail-closed invariant.
		out.strict = false
		return out
	case sockP != nil && sockP.IsRaw():
		// Protego-only raw socket: no baseline counterpart to compare, but
		// the send must obey the raw-socket filter exactly (invariant 3).
		errP := pro.m.K.SendTo(pro.sess(s.Actor), sockP, mkPkt())
		if sockP.UnprivRaw {
			if spec.passesFilter && errno.Of(errP) == errno.EPERM {
				res.Violations = append(res.Violations, Violation{Invariant: "raw-filter",
					Detail: fmt.Sprintf("filter dropped an allowed packet (proto=%d port=%d icmp=%d)",
						spec.proto, spec.dstPort, spec.icmpType)})
			}
			if !spec.passesFilter && errP == nil {
				res.Violations = append(res.Violations, Violation{Invariant: "raw-filter",
					Detail: fmt.Sprintf("filter passed a forbidden packet (proto=%d port=%d)",
						spec.proto, spec.dstPort)})
			}
		}
		res.Explained++
		return stepOutcome{}
	default:
		return stepOutcome{}
	}
}

func execIoctlStep(lin, pro *machineCtx, s Step, res *Result, idx int) stepOutcome {
	spec := pick(ioctlSpecs, s.A)
	var argL, argP any
	if spec.cmd == kernel.DMGETINFO {
		argL, argP = &userspace.DMInfo{}, &userspace.DMInfo{}
	} else {
		argL, argP = "1024x768", "1024x768"
	}
	errL := lin.m.K.Ioctl(lin.sess(s.Actor), spec.dev, spec.cmd, argL)
	errP := pro.m.K.Ioctl(pro.sess(s.Actor), spec.dev, spec.cmd, argP)
	if spec.cmd == kernel.DMGETINFO {
		// The dmcrypt metadata ioctl discloses the volume key; Protego
		// must never grant it to an unprivileged caller (§4.5).
		if errP == nil {
			res.Violations = append(res.Violations, Violation{Step: idx, Invariant: "dm-key",
				Detail: "unprivileged DMGETINFO succeeded on protego"})
		}
		return strictOutcome(s, errL, errP)
	}
	// VIDIOCSMODE: granted on Protego (§4.4 KMS), capability-gated on the
	// baseline; stateless either way.
	if errP == nil && errL != nil {
		res.Explained++
		return stepOutcome{}
	}
	return strictOutcome(s, errL, errP)
}

// checkTaskInvariant: no live Protego task may hold euid 0 or any
// capability unless it is the init task — fuzz actors never authenticate,
// so no legitimate elevation can outlive a step (transient elevated
// children, e.g. a NOPASSWD sudo, exit inside their utility run).
func checkTaskInvariant(pro *machineCtx, idx int, res *Result) {
	initPID := pro.m.Init.PID()
	for _, t := range pro.m.K.Tasks() {
		if t.PID() == initPID {
			continue
		}
		c := t.Creds()
		if c.EUID == 0 || !c.Effective.IsEmpty() || !c.Permitted.IsEmpty() {
			res.Violations = append(res.Violations, Violation{Step: idx, Invariant: "no-unauthorized-priv",
				Detail: fmt.Sprintf("task pid=%d holds euid=%d caps=%v/%v",
					t.PID(), c.EUID, c.Effective, c.Permitted)})
		}
	}
}

// checkMountInvariant: every user mount on the Protego image must be
// authorized — a fuse mount (ownership-checked at grant time) or a row of
// the in-kernel whitelist. This is what catches a broken MountCheck even
// though the reconciler "explains" the grant.
func checkMountInvariant(pro *machineCtx, idx int, res *Result) {
	if pro.m.Protego == nil {
		return
	}
	rules := pro.m.Protego.MountRules()
	for _, mnt := range pro.m.K.FS.Mounts() {
		if !mnt.UserMount {
			continue
		}
		if mnt.FSType == "fuse" {
			continue
		}
		ok := false
		for i := range rules {
			r := &rules[i]
			if r.Device == mnt.Device && r.MountPoint == mnt.Point &&
				(r.FSType == "" || r.FSType == "auto" || r.FSType == mnt.FSType) {
				ok = true
				break
			}
		}
		if !ok {
			res.Violations = append(res.Violations, Violation{Step: idx, Invariant: "mount-whitelist",
				Detail: fmt.Sprintf("user mount %s on %s (%s) matches no whitelist rule",
					mnt.Device, mnt.Point, mnt.FSType)})
		}
	}
}
