// Package faultinject is a deterministic, seedable fault-injection layer
// for the simulated kernel. Subsystems register *sites* — named points in
// the syscall dispatch path, the VFS, the netstack send path, monitord's
// config reads, and the auth service — and an Injector decides, per hit,
// whether to perturb the operation: fail it with a chosen errno, drop or
// duplicate a packet, or tear a config read mid-file.
//
// A rule fires at its site on the nth hit or on every hit, and torn reads
// cut at offsets drawn from the plan's seed, so a plan replays the exact
// same fault sequence on every run; every injection is additionally
// recorded on the internal/trace ring (KindFaultInject) and in the
// injector's own bounded record log.
//
// The zero *Injector (nil) is a valid no-op: every method is nil-safe, so
// call sites thread checks unconditionally without branching.
package faultinject

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"protego/internal/errno"
	"protego/internal/trace"
)

// Action is the kind of perturbation a rule applies at its site.
type Action int

// Actions. ActNone is the zero value and means "no fault fired".
const (
	ActNone Action = iota
	// ActErr fails the operation with the rule's errno.
	ActErr
	// ActDrop silently discards a packet (netstack send sites only).
	ActDrop
	// ActDup delivers a packet twice (netstack send sites only).
	ActDup
	// ActTorn truncates a config read at a seeded offset and appends
	// garbage, modeling a torn/partial read (monitord read sites only).
	ActTorn
)

// String names the action as it appears in trace records.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActErr:
		return "err"
	case ActDrop:
		return "drop"
	case ActDup:
		return "dup"
	case ActTorn:
		return "torn"
	default:
		return "invalid"
	}
}

// Rule schedules one fault. A rule matches a site when Site equals it
// exactly or, if Site ends in '*', when the site has the preceding prefix.
// A non-zero Nth fires on exactly the nth hit (1-based); with Nth zero the
// rule fires on every hit.
type Rule struct {
	Site   string
	Action Action
	Err    errno.Errno // injected errno for ActErr (ignored otherwise)
	Nth    uint64
}

func (r Rule) matches(site string) bool {
	if p, ok := strings.CutSuffix(r.Site, "*"); ok {
		return strings.HasPrefix(site, p)
	}
	return r.Site == site
}

// Plan is a seed plus an ordered rule list. The same plan with the same
// workload reproduces the same injections, record for record.
type Plan struct {
	// Seed fixes the offsets at which torn reads cut.
	Seed  int64
	Rules []Rule
}

// Record is one injection, in firing order. Comparing two runs' record
// slices is the replay-determinism check.
type Record struct {
	// Seq is the injector-local firing sequence (dense, starts at 0).
	Seq uint64
	// Site is the injection site name.
	Site string
	// Action is what was done.
	Action Action
	// Err is the injected errno (ActErr only).
	Err errno.Errno
	// Hit is the site's 1-based hit count when the fault fired.
	Hit uint64
}

// maxRecords bounds the injector's record log (matching the trace ring's
// default capacity); past it, firings still count but are not retained.
const maxRecords = 4096

// Injector evaluates rules at sites. Create one with New, wire it with
// SetTracer, and hand it to the kernel (Kernel.SetFaultInjector fans it
// out to the VFS and netstack). All methods are safe for concurrent use
// and safe on a nil receiver.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []Rule
	hits     map[string]uint64
	records  []Record
	injected uint64 // total firings, including ones past maxRecords
	disabled bool
	tracer   *trace.Tracer
}

// New creates an injector for the plan. The plan's seed fixes the RNG that
// picks torn-read cut offsets.
func New(plan Plan) *Injector {
	rules := make([]Rule, len(plan.Rules))
	copy(rules, plan.Rules)
	return &Injector{
		rng:   rand.New(rand.NewSource(plan.Seed)),
		rules: rules,
		hits:  make(map[string]uint64),
	}
}

// SetTracer routes injection records onto a trace ring (KindFaultInject).
func (in *Injector) SetTracer(tr *trace.Tracer) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.tracer = tr
	in.mu.Unlock()
}

// SetEnabled turns injection on or off. While disabled, checks return
// immediately without counting hits — the sweep harness disables the
// injector before its liveness pass.
func (in *Injector) SetEnabled(on bool) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.disabled = !on
	in.mu.Unlock()
}

// hit registers one hit at site and returns the action to apply, if any.
// Caller holds no locks; tracer emission happens outside in.mu.
func (in *Injector) hit(site string) (Action, errno.Errno, bool) {
	if in == nil {
		return ActNone, 0, false
	}
	in.mu.Lock()
	if in.disabled {
		in.mu.Unlock()
		return ActNone, 0, false
	}
	in.hits[site]++
	h := in.hits[site]
	for i := range in.rules {
		r := &in.rules[i]
		if !r.matches(site) || (r.Nth > 0 && h != r.Nth) {
			continue
		}
		rec := Record{Seq: in.injected, Site: site, Action: r.Action, Err: r.Err, Hit: h}
		in.injected++
		if len(in.records) < maxRecords {
			in.records = append(in.records, rec)
		}
		act, e, tr := r.Action, r.Err, in.tracer
		in.mu.Unlock()
		var traced errno.Errno
		if act == ActErr {
			traced = e
		}
		tr.FaultInject(site, act.String(), traced, h)
		return act, e, true
	}
	in.mu.Unlock()
	return ActNone, 0, false
}

// Check registers a hit at site and returns the injected error, if an
// error-action rule fired (drop/dup/torn rules never fire here). This is
// the form threaded through syscall entry points and VFS operations.
func (in *Injector) Check(site string) error {
	act, e, ok := in.hit(site)
	if !ok || act != ActErr {
		return nil
	}
	return fmt.Errorf("faultinject: %s: %w", site, e)
}

// CheckSend registers a hit at a netstack send site. It returns ActDrop or
// ActDup for the caller to apply to the packet, a non-nil error for an
// error rule, or (ActNone, nil) when nothing fired.
func (in *Injector) CheckSend(site string) (Action, error) {
	act, e, ok := in.hit(site)
	if !ok {
		return ActNone, nil
	}
	switch act {
	case ActErr:
		return ActNone, fmt.Errorf("faultinject: %s: %w", site, e)
	case ActDrop, ActDup:
		return act, nil
	default:
		return ActNone, nil
	}
}

// CheckData registers a hit at a config-read site and perturbs data: a
// torn rule truncates it at a seeded offset and appends a garbage tail
// (guaranteeing every config parser errors rather than silently accepting
// a prefix), an error rule fails the read outright. Otherwise data is
// returned unchanged.
func (in *Injector) CheckData(site string, data []byte) ([]byte, error) {
	act, e, ok := in.hit(site)
	if !ok {
		return data, nil
	}
	switch act {
	case ActErr:
		return nil, fmt.Errorf("faultinject: %s: %w", site, e)
	case ActTorn:
		in.mu.Lock()
		cut := 0
		if len(data) > 0 {
			cut = in.rng.Intn(len(data))
		}
		in.mu.Unlock()
		torn := make([]byte, 0, cut+5)
		torn = append(torn, data[:cut]...)
		torn = append(torn, "\x00torn"...)
		return torn, nil
	default:
		return data, nil
	}
}

// Records returns the retained injection records, in firing order.
func (in *Injector) Records() []Record {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Record, len(in.records))
	copy(out, in.records)
	return out
}

// Injections returns the total number of firings (including any past the
// record-log cap).
func (in *Injector) Injections() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}
