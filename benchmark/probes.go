package main

import (
	"fmt"
	"time"

	"protego/internal/difffuzz"
	"protego/internal/exploits"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/policy"
	"protego/internal/seccomp/profiles"
	"protego/internal/trace"
	"protego/internal/vfs"
	"protego/internal/vulngen"
	"protego/internal/world"
)

// probeBatch is how many calls of a cheap probe are timed together: the
// probe reports the median over batches of the per-call mean, which keeps
// the two clock reads out of a nanosecond-scale call.
const probeBatch = 100

// probes calls each layer's public functions directly, after the timed
// rounds of a traced run. Calls that take microseconds or more are
// recorded as spans on their own tracer; the rest are timed in batches.
type probes struct {
	cfg   *config
	seed  int64
	tr    *spanTracer
	batch map[string]float64 // ns per call

	// Counters of the probes' machines, by image index. difffuzz and cve
	// stand in for those workloads' own machines, which the benchmark
	// does not own; hooks, from the lmbench and utility probes, for LSM
	// hooks a workload never reaches.
	hooks, difffuzz, cve  [2]usage
	diffRun, diffReplay   time.Duration
	diffSteps, diffTraces int
	cveEnvs               int
}

func runProbes(cfg *config, seed int64, inst instance) (*probes, error) {
	p := &probes{
		cfg:   cfg,
		seed:  seed,
		tr:    newSpanTracer(seed),
		batch: map[string]float64{},
	}
	for _, step := range []func(instance) error{
		p.cheap, p.world, p.lmbench, p.utilities, p.diffFuzz, p.cveReplay,
	} {
		if err := step(inst); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return p, nil
}

// timeBatches runs f calls times and records the median per-call time in
// ns under name. f reports a wrong result as an error.
func (p *probes) timeBatches(name string, calls int, f func(i int) error) error {
	var means []float64
	for i := 0; i < calls; i += probeBatch {
		start := time.Now()
		for j := i; j < i+probeBatch; j++ {
			if err := f(j); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		means = append(means, float64(time.Since(start))/probeBatch)
	}
	p.batch[name] = median(means)
	return nil
}

// span times one call of f as a span named name on the probe tracer.
func (p *probes) span(name string, f func() error) error {
	p.tr.request()
	p.tr.begin(name)
	err := f()
	p.tr.end()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// probePaths are the paths the lmbench-mix and setuid-utils ops resolve.
var probePaths = []string{
	lmReadPath, "/etc/nonexistent-page/../motd", "/dev/sdc1", "/mnt/backup",
	"/usr/bin/sudo", "./../alice/.profile", "/etc/shadows/alice", "/cdrom",
}

var probeUsers = []string{"alice", "bob", "charlie"}

func (p *probes) cheap(instance) error {
	m, err := world.Build(world.Options{Mode: kernel.ModeProtego})
	if err != nil {
		return err
	}
	n := p.cfg.probes.calls
	tr := trace.New(0)
	if err := p.timeBatches("trace.syscall_pair", n, func(int) error {
		tr.SyscallExit(tr.SyscallEnter("getpid", 1, 0), nil)
		return nil
	}); err != nil {
		return err
	}
	if err := p.timeBatches("vfs.clean_path", n, func(i int) error {
		vfs.CleanPath(probePaths[i%len(probePaths)], "/home/alice")
		return nil
	}); err != nil {
		return err
	}
	existing := []string{"/etc/motd", "/dev/sdc1", "/mnt/backup", "/usr/bin/sudo", "/etc/fstab"}
	if err := p.timeBatches("vfs.lookup", n, func(i int) error {
		_, err := m.K.FS.Lookup(vfs.RootCred, existing[i%len(existing)])
		return err
	}); err != nil {
		return err
	}
	if err := p.timeBatches("accountdb.lookup_user", n, func(i int) error {
		_, err := m.DB.LookupUser(probeUsers[i%len(probeUsers)])
		return err
	}); err != nil {
		return err
	}
	if err := p.timeBatches("accountdb.group_ids", n, func(i int) error {
		_, err := m.DB.GroupIDsOf(probeUsers[i%len(probeUsers)])
		return err
	}); err != nil {
		return err
	}
	if err := p.timeBatches("authsvc.verify_password", n, func(int) error {
		if !m.Auth.VerifyPassword("alice", world.AlicePassword) {
			return fmt.Errorf("alice's password does not verify")
		}
		return nil
	}); err != nil {
		return err
	}
	// ping's echo request from an unprivileged raw socket.
	echo := &netstack.Packet{
		Src: m.K.Net.HostIP(), Dst: m.K.Net.HostIP(), Proto: netstack.IPPROTO_ICMP,
		ICMPType: netstack.ICMPEchoRequest, Payload: []byte("protego-ping seq=1"),
		FromRaw: true, UnprivRaw: true, SenderUID: world.UIDAlice,
	}
	if err := p.timeBatches("netfilter.output", n, func(int) error {
		if v := m.K.Filter.Output(echo); v != netstack.Accept {
			return fmt.Errorf("echo request verdict %v", v)
		}
		return nil
	}); err != nil {
		return err
	}
	fstab, err := m.K.FS.ReadFile(vfs.RootCred, "/etc/fstab")
	if err != nil {
		return err
	}
	sudoers, err := m.K.FS.ReadFile(vfs.RootCred, "/etc/sudoers")
	if err != nil {
		return err
	}
	parses := p.cfg.probes.parse
	if err := p.timeBatches("policy.parse_fstab", parses, func(int) error {
		_, err := policy.ParseFstab(string(fstab))
		return err
	}); err != nil {
		return err
	}
	return p.timeBatches("policy.parse_sudoers", parses, func(int) error {
		_, err := policy.ParseSudoers(string(sudoers))
		return err
	})
}

func (p *probes) world(instance) error {
	for i := 0; i < p.cfg.probes.build; i++ {
		if err := p.span("world.build", func() error {
			_, err := world.Build(world.Options{Mode: kernel.ModeProtego})
			return err
		}); err != nil {
			return err
		}
	}
	for _, mode := range twoImages {
		golden, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			return err
		}
		snap := golden.Snapshot()
		var clone *world.Machine
		for i := 0; i < p.cfg.probes.clone; i++ {
			if err := p.span(imagePrefix(mode)+"world.clone", func() error {
				clone, err = snap.Clone()
				return err
			}); err != nil {
				return err
			}
		}
		if mode != kernel.ModeProtego {
			continue
		}
		for i := 0; i < p.cfg.probes.fingerprint; i++ {
			if err := p.span("world.fingerprint", func() error {
				clone.Fingerprint()
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// lmbench runs every lmbench-mix op on fresh images, for the per-op
// kernel costs of workloads that do not issue them and for LSM hooks
// those workloads never reach.
func (p *probes) lmbench(instance) error {
	w, err := newLmbench(&workloadSpec{OpsPerRound: len(lmOps)}, p.seed, &options{})
	if err != nil {
		return err
	}
	// Root's setuid and setgid never reach the LSM; an unprivileged
	// caller's do, whatever they return.
	for img := range w.images() {
		m := w.machines(img)[0]
		alice, err := m.Session("alice")
		if err != nil {
			return err
		}
		for i := 0; i < p.cfg.probes.kernel; i++ {
			child := m.K.Fork(alice)
			_ = m.K.Setuid(child, 0)
			_ = m.K.Setgid(child, 0)
			m.K.Exit(child, 0)
		}
		m.K.Exit(alice, 0)
	}
	return p.replay(w, p.cfg.probes.kernel*len(lmOps))
}

// utilities runs each setuid-utils op and policy-churn cycles on fresh
// images, for the utility and monitord costs of the other workloads.
func (p *probes) utilities(instance) error {
	n := p.cfg.probes.userspace
	utils, err := newSetuidUtils(&workloadSpec{OpsPerRound: len(setuidUtilOps)}, p.seed, &options{})
	if err != nil {
		return err
	}
	if err := p.replay(utils, n*len(setuidUtilOps)); err != nil {
		return err
	}
	churn, err := newPolicyChurn(nil, p.seed, &options{})
	if err != nil {
		return err
	}
	return p.replay(churn, n)
}

// replay runs ops ops of w on each of its images with spans on, and adds
// its machines to the hooks usage.
func (p *probes) replay(w instance, ops int) error {
	w.setTracer(p.tr)
	defer w.setTracer(nil)
	for img := range w.images() {
		for i := 0; i < ops; i++ {
			p.tr.request()
			if err := w.run(img, 0, i); err != nil {
				return err
			}
		}
		for _, m := range w.machines(img) {
			p.hooks[img].add(m, 1)
		}
	}
	return w.check()
}

// diffFuzz runs traces through both difffuzz.Run and difffuzz.Replay, the
// same traces without fingerprints or invariants, and keeps the replay
// machines for their counters.
func (p *probes) diffFuzz(inst instance) error {
	audit, err := profiles.Load(kernel.ModeProtego)
	if err != nil {
		return err
	}
	cfg := difffuzz.Config{SeccompAudit: audit}
	gen := difffuzz.NewGenerator(p.seed)
	w, own := inst.(*diffFuzz)
	for i := 0; i < p.cfg.probes.difffuzz; i++ {
		tr := gen.Next()
		if own {
			tr = w.input(0, i)
		}
		var res *difffuzz.Result
		start := time.Now()
		if err := p.span("difffuzz.run", func() (err error) {
			if res, err = difffuzz.Run(tr, cfg); err == nil && res.Failed() {
				err = fmt.Errorf("%s", res)
			}
			return err
		}); err != nil {
			return err
		}
		p.diffRun += time.Since(start)
		p.diffSteps += res.Steps
		var replayed []*world.Machine
		start = time.Now()
		if err := p.span("difffuzz.replay", func() error {
			return difffuzz.Replay(tr, func(m *world.Machine) { replayed = append(replayed, m) })
		}); err != nil {
			return err
		}
		p.diffReplay += time.Since(start)
		for _, m := range replayed {
			p.difffuzz[imageIndex(m.K.Mode)].add(m, 1)
		}
		p.diffTraces++
	}
	return nil
}

// cveReplay replays environments step by step as vulngen.ReplayScenario
// does, timing each layer call and reading each machine's counters, and
// then whole through ReplayScenario.
func (p *probes) cveReplay(inst instance) error {
	gen := vulngen.NewGenerator(p.seed)
	w, own := inst.(*cveReplay)
	for i := 0; i < p.cfg.probes.vulngen; i++ {
		sc := gen.Scenario()
		if own {
			sc = w.input(0, i)
		}
		var snaps [2]*world.Snapshot
		for img, mode := range twoImages {
			var m *world.Machine
			if err := p.span("exploits.new_machine", func() (err error) {
				m, err = exploits.NewMachine(mode)
				return err
			}); err != nil {
				return err
			}
			if err := p.span("vulngen.apply", func() error { return vulngen.Apply(m, sc) }); err != nil {
				return err
			}
			p.cve[img].add(m, 1)
			snaps[img] = m.Snapshot()
		}
		for _, cve := range exploits.Corpus {
			for img := range twoImages {
				m, err := snaps[img].Clone()
				if err != nil {
					return err
				}
				if err := p.span("exploits.run_cve", func() error {
					_, err := exploits.RunCVEOn(m, cve)
					return err
				}); err != nil {
					return err
				}
				p.cve[img].add(m, 1)
			}
		}
		if err := p.span("vulngen.replay_env", func() error {
			res, err := vulngen.ReplayScenario(sc, exploits.Corpus, vulngen.Config{})
			if err == nil && res.Failing() {
				err = fmt.Errorf("%s", res)
			}
			return err
		}); err != nil {
			return err
		}
		p.cveEnvs++
	}
	return nil
}
