// Package seccomp implements trace-derived per-binary syscall allowlists.
// A profiler replays the functional corpora (equiv scenarios + difffuzz
// traces) on an instrumented machine and records, per registered binary,
// the set of syscalls it actually issues; the learned profiles compile to
// bitmask filters over the kernel.Sysno catalog and are enforced from the
// kernel's single enter() prologue through the TaskSyscall LSM hook,
// failing violations closed with ENOSYS. The committed JSON shape follows
// the Moby/OCI profiles/ convention (sorted "names" lists with
// SCMP_ACT_ALLOW against an SCMP_ACT_ERRNO default) so profile drift is
// always a reviewable diff.
package seccomp

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"

	"protego/internal/kernel"
)

// maskWords sizes the allowlist bitmask to the syscall catalog.
const maskWords = (kernel.NumSysno + 63) / 64

// Profile is one binary's (or the whole machine's) syscall allowlist: a
// bitmask over the kernel.Sysno catalog. The zero value denies everything.
type Profile struct {
	// Binary is the profiled binary's path, or "" for a machine profile.
	Binary string
	mask   [maskWords]uint64
}

// NewProfile returns an empty (deny-everything) profile for binary.
func NewProfile(binary string) *Profile { return &Profile{Binary: binary} }

// FullProfile returns a profile allowing the entire catalog; benchmarks
// use it to measure the enforcement mechanism's cost without any policy
// denials, and tests subtract from it to craft targeted denials.
func FullProfile(binary string) *Profile {
	p := NewProfile(binary)
	for _, sn := range kernel.Sysnos() {
		p.Allow(sn)
	}
	return p
}

// Allow adds sn to the allowlist.
func (p *Profile) Allow(sn kernel.Sysno) {
	if int(sn) < kernel.NumSysno {
		p.mask[int(sn)/64] |= 1 << (uint(sn) % 64)
	}
}

// Forbid removes sn from the allowlist.
func (p *Profile) Forbid(sn kernel.Sysno) {
	if int(sn) < kernel.NumSysno {
		p.mask[int(sn)/64] &^= 1 << (uint(sn) % 64)
	}
}

// Allows reports whether sn is in the allowlist.
func (p *Profile) Allows(sn kernel.Sysno) bool {
	if int(sn) >= kernel.NumSysno {
		return false
	}
	return p.mask[int(sn)/64]&(1<<(uint(sn)%64)) != 0
}

// Len counts the allowed syscalls.
func (p *Profile) Len() int {
	n := 0
	for _, w := range p.mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// Syscalls returns the allowed syscalls in catalog order.
func (p *Profile) Syscalls() []kernel.Sysno {
	out := make([]kernel.Sysno, 0, p.Len())
	for _, sn := range kernel.Sysnos() {
		if p.Allows(sn) {
			out = append(out, sn)
		}
	}
	return out
}

// Names returns the allowed syscalls' trace names, sorted alphabetically
// — the Moby profile convention, and what makes encoded profiles
// byte-identical across learning runs.
func (p *Profile) Names() []string {
	out := make([]string, 0, p.Len())
	for _, sn := range p.Syscalls() {
		out = append(out, sn.String())
	}
	sort.Strings(out)
	return out
}

// ProfileSet holds a machine image's learned profiles: one per profiled
// binary plus the machine-wide union applied to tasks running unprofiled
// binaries. Learning mutates the set (through Observe, serialized by the
// Recorder); once handed to an enforcing module it must be treated as
// immutable — enforcement reads it lock-free on every syscall, and clones
// share the same set by reference.
type ProfileSet struct {
	// Mode names the image the set was learned on ("linux"/"protego").
	Mode string
	// Machine is the union of every syscall observed on the image.
	Machine *Profile
	bins    map[string]*Profile
}

// NewSet returns an empty set for the named mode.
func NewSet(mode string) *ProfileSet {
	return &ProfileSet{Mode: mode, Machine: NewProfile(""), bins: map[string]*Profile{}}
}

// Observe records that binary issued sn, growing both the binary's
// profile and the machine union.
func (s *ProfileSet) Observe(binary string, sn kernel.Sysno) {
	if !sn.Valid() {
		return
	}
	p := s.bins[binary]
	if p == nil {
		p = NewProfile(binary)
		s.bins[binary] = p
	}
	p.Allow(sn)
	s.Machine.Allow(sn)
}

// For returns binary's profile, or nil when it was never profiled.
func (s *ProfileSet) For(binary string) *Profile { return s.bins[binary] }

// Add installs a pre-built profile, replacing any existing one for the
// same binary.
func (s *ProfileSet) Add(p *Profile) { s.bins[p.Binary] = p }

// Binaries lists the profiled binaries, sorted.
func (s *ProfileSet) Binaries() []string {
	out := make([]string, 0, len(s.bins))
	for b := range s.bins {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Seccomp actions in the committed profile shape.
const (
	ActAllow = "SCMP_ACT_ALLOW"
	ActErrno = "SCMP_ACT_ERRNO"
)

// profileJSON is one allowlist in the committed shape.
type profileJSON struct {
	Binary string   `json:"binary,omitempty"`
	Names  []string `json:"names"`
	Action string   `json:"action"`
}

// setJSON is the committed golden-profile document.
type setJSON struct {
	Mode          string        `json:"mode"`
	DefaultAction string        `json:"defaultAction"`
	Machine       profileJSON   `json:"machine"`
	Binaries      []profileJSON `json:"binaries"`
}

// Encode renders the set in the committed golden shape: binaries and
// names sorted, two-space indent, trailing newline. Equal contents encode
// byte-identically, which is what the CI drift gate compares.
func (s *ProfileSet) Encode() ([]byte, error) {
	doc := setJSON{
		Mode:          s.Mode,
		DefaultAction: ActErrno,
		Machine:       profileJSON{Names: s.Machine.Names(), Action: ActAllow},
		Binaries:      make([]profileJSON, 0, len(s.bins)),
	}
	for _, b := range s.Binaries() {
		doc.Binaries = append(doc.Binaries, profileJSON{
			Binary: b,
			Names:  s.bins[b].Names(),
			Action: ActAllow,
		})
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses an encoded set, resolving names through the catalog.
// Unknown names are an error: a profile referencing a syscall the catalog
// does not know is stale, not ignorable.
func Decode(data []byte) (*ProfileSet, error) {
	var doc setJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	s := NewSet(doc.Mode)
	fill := func(p *Profile, names []string) error {
		for _, name := range names {
			sn, ok := kernel.FromName(name)
			if !ok {
				return fmt.Errorf("seccomp: unknown syscall %q in %s profile", name, doc.Mode)
			}
			p.Allow(sn)
		}
		return nil
	}
	if err := fill(s.Machine, doc.Machine.Names); err != nil {
		return nil, err
	}
	for _, pj := range doc.Binaries {
		p := NewProfile(pj.Binary)
		if err := fill(p, pj.Names); err != nil {
			return nil, err
		}
		s.bins[pj.Binary] = p
	}
	return s, nil
}
