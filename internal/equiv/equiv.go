// Package equiv implements the functional testing of §5.3: exhaustive
// scenario scripts for the setuid command-line utilities, each executed on
// the baseline and on Protego, validating that "the utilities have the
// same output and effects on both systems". The per-utility scenario pass
// rate is the runnable analog of the paper's Table 7 gcov coverage (the
// actual Go statement coverage of the utility implementations is reported
// separately by `go test -cover ./internal/userspace`).
package equiv

import (
	"fmt"
	"sort"
	"strings"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// Scenario is one functional test of a utility.
type Scenario struct {
	Name string
	// User runs Argv, answering prompts with Answers (matched by
	// substring; the "" key is the default answer).
	User    string
	Argv    []string
	Answers map[string]string
	// Setup prepares machine state before the run (optional).
	Setup func(m *world.Machine) error
	// Effect fingerprints post-run system state for comparison
	// (optional); it runs with root credentials.
	Effect func(m *world.Machine) string
}

func (s *Scenario) asker() func(string) string {
	if s.Answers == nil {
		return nil
	}
	return func(prompt string) string {
		for key, answer := range s.Answers {
			if key != "" && strings.Contains(prompt, key) {
				return answer
			}
		}
		return s.Answers[""]
	}
}

// Outcome is one mode's result of a scenario.
type Outcome struct {
	Code   int
	Stdout string
	Stderr string
	Effect string
	// State is the machine's canonical post-run state
	// (world.Machine.FingerprintText), shared with internal/difffuzz so
	// the two harnesses cannot drift apart in what "same effects" means.
	State string
}

// run executes the scenario on a private clone of the mode's golden image.
func (s *Scenario) run(mode kernel.Mode) (*Outcome, error) {
	snap, err := world.Golden(mode)
	if err != nil {
		return nil, err
	}
	m, err := snap.Clone()
	if err != nil {
		return nil, err
	}
	if s.Setup != nil {
		if err := s.Setup(m); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	sess, err := m.Session(s.User)
	if err != nil {
		return nil, err
	}
	code, stdout, stderr, _ := m.Run(sess, s.Argv, s.asker())
	out := &Outcome{Code: code, Stdout: stdout, Stderr: stderr}
	if s.Effect != nil {
		out.Effect = s.Effect(m)
	}
	out.State = m.FingerprintText()
	return out, nil
}

// ReplayOn executes the scenario on m without judging the outcome. The
// seccomp profiler drives the learning corpus through it: the scenario's
// setup, session, run, and effect all execute, so every syscall the
// utility issues on that machine is observable by an installed recorder,
// but pass/fail comparison stays Compare's job.
func (s *Scenario) ReplayOn(m *world.Machine) error {
	if s.Setup != nil {
		if err := s.Setup(m); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	sess, err := m.Session(s.User)
	if err != nil {
		return err
	}
	_, _, _, _ = m.Run(sess, s.Argv, s.asker())
	if s.Effect != nil {
		_ = s.Effect(m)
	}
	return nil
}

// Mismatch describes a divergence between the two systems.
type Mismatch struct {
	Scenario string
	Field    string
	Linux    string
	Protego  string
}

// Compare runs the scenario on both systems and reports divergences.
// Stderr is compared only for emptiness: the two systems legitimately
// produce different diagnostic phrasings ("only root can mount" vs the
// kernel's EPERM), but success/failure and stdout must agree.
func (s *Scenario) Compare() ([]Mismatch, error) {
	linux, err := s.run(kernel.ModeLinux)
	if err != nil {
		return nil, fmt.Errorf("%s (linux): %w", s.Name, err)
	}
	protego, err := s.run(kernel.ModeProtego)
	if err != nil {
		return nil, fmt.Errorf("%s (protego): %w", s.Name, err)
	}
	var out []Mismatch
	if linux.Code != protego.Code {
		out = append(out, Mismatch{s.Name, "exit code", fmt.Sprint(linux.Code), fmt.Sprint(protego.Code)})
	}
	if linux.Stdout != protego.Stdout {
		out = append(out, Mismatch{s.Name, "stdout", linux.Stdout, protego.Stdout})
	}
	if (linux.Stderr == "") != (protego.Stderr == "") {
		out = append(out, Mismatch{s.Name, "stderr presence", linux.Stderr, protego.Stderr})
	}
	if linux.Effect != protego.Effect {
		out = append(out, Mismatch{s.Name, "effect", linux.Effect, protego.Effect})
	}
	if linux.State != protego.State {
		out = append(out, Mismatch{s.Name, "state fingerprint",
			world.DiffText(linux.State, protego.State, "linux-only", "protego-only"), ""})
	}
	return out, nil
}

// UtilityReport is one Table 7 row.
type UtilityReport struct {
	Utility    string
	Passed     int
	Total      int
	Mismatches []Mismatch
}

// PassPct is the scenario pass percentage.
func (r *UtilityReport) PassPct() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Passed) / float64(r.Total) * 100
}

// RunUtility executes every scenario of the named utility.
func RunUtility(utility string) (*UtilityReport, error) {
	scenarios, ok := Scenarios[utility]
	if !ok {
		return nil, fmt.Errorf("equiv: unknown utility %q", utility)
	}
	report := &UtilityReport{Utility: utility, Total: len(scenarios)}
	for i := range scenarios {
		mismatches, err := scenarios[i].Compare()
		if err != nil {
			return nil, err
		}
		if len(mismatches) == 0 {
			report.Passed++
		} else {
			report.Mismatches = append(report.Mismatches, mismatches...)
		}
	}
	return report, nil
}

// Utilities lists the Table 7 binaries in the paper's order, followed by
// the additional utilities this reproduction extends the corpus to.
func Utilities() []string {
	return []string{"chfn", "chsh", "gpasswd", "newgrp", "passwd", "su",
		"sudo", "sudoedit", "mount", "umount", "ping",
		"traceroute", "mtr", "arping", "fusermount", "pppd",
		"dmcrypt-get-device", "ssh-keysign", "X", "vipw",
		"chromium-sandbox", "login", "eject", "fping", "tracepath"}
}

// RunAll produces the full Table 7, sorted by utility name so golden
// output and CI diffs are stable regardless of the corpus declaration
// order.
func RunAll() ([]*UtilityReport, error) {
	var reports []*UtilityReport
	for _, u := range Utilities() {
		r, err := RunUtility(u)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Utility < reports[j].Utility })
	return reports, nil
}

// FormatTable7 renders the reports.
func FormatTable7(reports []*UtilityReport) string {
	var b strings.Builder
	b.WriteString("Table 7: Functional equivalence of command-line setuid binaries\n")
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "Binary", "Scenarios", "Equiv. %")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-12s %10d %9.1f%%\n", r.Utility, r.Total, r.PassPct())
	}
	return b.String()
}

// --- shared scenario helpers ---

func mountTableEffect(m *world.Machine) string { return m.K.FS.FormatMtab() }

func shellOf(user string) func(m *world.Machine) string {
	return func(m *world.Machine) string {
		// Converge Protego fragments into the legacy view first.
		if m.Monitor != nil {
			_ = m.Monitor.SyncAccountsFromFragments()
		}
		u, err := m.DB.LookupUser(user)
		if err != nil {
			return "lookup-error"
		}
		return u.Shell + "|" + u.Gecos
	}
}

func loginWorks(user, password string) func(m *world.Machine) string {
	return func(m *world.Machine) string {
		if m.Monitor != nil {
			_ = m.Monitor.SyncAccountsFromFragments()
		}
		root, err := m.Session("root")
		if err != nil {
			return "session-error"
		}
		code, _, _, _ := m.Run(root, []string{userspace.BinLogin, user}, world.AnswerWith(password))
		return fmt.Sprintf("login=%d", code)
	}
}

func queueEffect(m *world.Machine) string {
	data, err := m.K.FS.ReadFile(vfs.RootCred, "/var/spool/lpd/queue")
	if err != nil {
		return "queue-error"
	}
	return string(data)
}
