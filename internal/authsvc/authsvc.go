// Package authsvc implements the trusted authentication utility of the
// Protego design (Table 2: 1,200 lines refactored from login and newgrp).
// The kernel launches it when a setuid/setgid transition requires
// authentication: it takes over the task's terminal, collects a password,
// verifies it against the (fragmented) shadow database, and stamps the
// task's security blob with the authentication time. The Protego LSM
// consults the stamp to enforce the recency requirement (§4.3): a setuid
// system call without a recent authentication of the current user triggers
// this service, unless a sudoers NOPASSWD directive applies.
package authsvc

import (
	"sync"
	"sync/atomic"
	"time"

	"protego/internal/accountdb"
	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/lsm"
	"protego/internal/policy"
	"protego/internal/trace"
)

// BlobLastAuth is the task security blob key holding the last successful
// authentication time (a time.Time) — the paper's task_struct field.
const BlobLastAuth = "auth.last"

// Prompter is anything that can answer an interactive prompt; kernel.Task
// implements it (the simulated terminal).
type Prompter interface {
	Ask(prompt string) string
}

// Service is the authentication utility.
type Service struct {
	db *accountdb.DB

	mu sync.Mutex
	// Window is the recency window (sudo's timestamp_timeout).
	window time.Duration
	// now is injectable for tests.
	now func() time.Time

	// Attempts counts password verifications, observable in tests and
	// the ablation benchmarks.
	Attempts int

	// tracer, when set, receives one auth event per check. Installed at
	// world build, before the service handles requests.
	tracer *trace.Tracer
	// counts caches the tracer's (mechanism, outcome) counters.
	counts [numMechanisms][2]trace.CounterRef

	// faults, when armed, perturbs shadow-database lookups (verification
	// timeouts, database I/O errors). Nil means no injection.
	faults atomic.Pointer[faultinject.Injector]
}

// New creates a service over the account database with the default
// 5-minute window.
func New(db *accountdb.DB) *Service {
	return &Service{
		db:     db,
		window: policy.DefaultTimestampTimeout,
		now:    time.Now,
	}
}

// SetTracer installs the trace sink for authentication checks.
func (s *Service) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// SetFaultInjector arms fault injection on the shadow-database path.
func (s *Service) SetFaultInjector(in *faultinject.Injector) { s.faults.Store(in) }

// maxVerifyRetries bounds how many consecutive verification timeouts the
// service absorbs before failing closed.
const maxVerifyRetries = 2

// shadowHash resolves the user's shadow hash through the fault injector:
// a verification timeout (authsvc.verify, ETIMEDOUT) is retried up to
// maxVerifyRetries times; any other verify error, and any database error
// (authsvc.db), fails closed immediately. Either way an error here can
// only ever deny — never grant — authentication.
func (s *Service) shadowHash(user string) (string, error) {
	in := s.faults.Load()
	for attempt := 0; ; attempt++ {
		err := in.Check(faultinject.SiteAuthVerify)
		if err == nil {
			break
		}
		if !errno.Is(err, errno.ETIMEDOUT) || attempt >= maxVerifyRetries {
			return "", err
		}
	}
	if err := in.Check(faultinject.SiteAuthDB); err != nil {
		return "", err
	}
	return s.db.ShadowHash(user)
}

// mechanism numbers the checks the service traces.
type mechanism uint8

const (
	mechPassword mechanism = iota
	mechGroup
	mechRecency
	numMechanisms
)

// mechanismNames are the mechanisms' trace names.
var mechanismNames = [numMechanisms]string{
	mechPassword: "password",
	mechGroup:    "group",
	mechRecency:  "recency",
}

// observe emits one auth event; t may be nil for non-task checks.
func (s *Service) observe(mech mechanism, subject string, t lsm.Task, ok bool) {
	pid, uid := 0, -1
	if t != nil {
		pid, uid = t.PID(), t.UID()
	}
	outcome := 0
	if ok {
		outcome = 1
	}
	s.tracer.AuthCheckRef(&s.counts[mech][outcome], mechanismNames[mech], subject, pid, uid, ok)
}

// SetWindow adjusts the recency window (driven by the sudoers
// timestamp_timeout directive via the monitoring daemon).
func (s *Service) SetWindow(d time.Duration) {
	s.mu.Lock()
	s.window = d
	s.mu.Unlock()
}

// Window returns the current recency window.
func (s *Service) Window() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window
}

// SetClock injects a time source for tests.
func (s *Service) SetClock(now func() time.Time) {
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

func (s *Service) clock() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now()
}

// Stamp records a successful authentication on the task.
func (s *Service) Stamp(t lsm.Task) {
	t.SetSecurityBlob(BlobLastAuth, s.clock())
}

// RecentlyAuthenticated reports whether the task authenticated within the
// window.
func (s *Service) RecentlyAuthenticated(t lsm.Task) bool {
	v := t.SecurityBlob(BlobLastAuth)
	if v == nil {
		return false
	}
	last, ok := v.(time.Time)
	if !ok {
		return false
	}
	return s.clock().Sub(last) <= s.Window()
}

// VerifyPassword checks a password for the named user against the shadow
// database without prompting.
func (s *Service) VerifyPassword(user, password string) bool {
	s.mu.Lock()
	s.Attempts++
	s.mu.Unlock()
	hash, err := s.shadowHash(user)
	if err != nil {
		return false
	}
	return accountdb.VerifyPassword(hash, password)
}

// AuthenticateUser takes over the terminal and asks for the named user's
// password (sudo asks for the *calling* user's, su for the *target*'s; the
// caller chooses). On success, if the authenticated user is the task's own
// real identity, the recency stamp is updated. Returns EACCES on failure
// or when the task has no terminal.
func (s *Service) AuthenticateUser(t lsm.Task, user string, ownIdentity bool) error {
	p, ok := t.(Prompter)
	if !ok {
		s.observe(mechPassword, user, t, false)
		return errno.EACCES
	}
	password := p.Ask("[protego-auth] password for " + user + ": ")
	if !s.VerifyPassword(user, password) {
		s.observe(mechPassword, user, t, false)
		return errno.EACCES
	}
	s.observe(mechPassword, user, t, true)
	if ownIdentity {
		s.Stamp(t)
	}
	return nil
}

// AuthenticateGroup asks for a password-protected group's password (the
// newgrp flow of §4.3).
func (s *Service) AuthenticateGroup(t lsm.Task, group string) (err error) {
	defer func() { s.observe(mechGroup, group, t, err == nil) }()
	g, err := s.db.LookupGroup(group)
	if err != nil {
		return errno.EACCES
	}
	if g.Password == "" {
		return errno.EACCES // not a password-protected group
	}
	p, ok := t.(Prompter)
	if !ok {
		return errno.EACCES
	}
	password := p.Ask("[protego-auth] password for group " + group + ": ")
	s.mu.Lock()
	s.Attempts++
	s.mu.Unlock()
	if !accountdb.VerifyPassword(g.Password, password) {
		return errno.EACCES
	}
	return nil
}

// EnsureRecent authenticates the task's own user unless already recent.
// This is the entry point the Protego LSM calls when a delegated
// transition completes: at exec for a user target, at setgid for a
// "%group" target (§4.3).
func (s *Service) EnsureRecent(t lsm.Task, ownUser string) error {
	if s.RecentlyAuthenticated(t) {
		s.observe(mechRecency, ownUser, t, true)
		return nil
	}
	s.observe(mechRecency, ownUser, t, false)
	return s.AuthenticateUser(t, ownUser, true)
}
