package seccomp

import (
	"bytes"
	"strings"
	"testing"

	"protego/internal/caps"
	"protego/internal/kernel"
	"protego/internal/lsm"
)

func TestProfileBitmask(t *testing.T) {
	p := NewProfile("/bin/x")
	if p.Len() != 0 {
		t.Fatalf("fresh profile allows %d syscalls, want 0", p.Len())
	}
	p.Allow(kernel.SysOpen)
	p.Allow(kernel.SysKill)
	if !p.Allows(kernel.SysOpen) || !p.Allows(kernel.SysKill) {
		t.Fatal("Allow did not take")
	}
	if p.Allows(kernel.SysMount) {
		t.Fatal("profile allows a syscall never added")
	}
	p.Forbid(kernel.SysKill)
	if p.Allows(kernel.SysKill) {
		t.Fatal("Forbid did not take")
	}
	if got := p.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}

	full := FullProfile("")
	if got := full.Len(); got != kernel.NumSysno-1 {
		t.Fatalf("FullProfile allows %d syscalls, want the whole catalog (%d)",
			got, kernel.NumSysno-1)
	}
}

func TestSetEncodeDecodeRoundTrip(t *testing.T) {
	s := NewSet("protego")
	s.Observe("/bin/ping", kernel.SysSocket)
	s.Observe("/bin/ping", kernel.SysSendTo)
	s.Observe("/usr/bin/passwd", kernel.SysReadFile)
	s.Observe("/usr/bin/passwd", kernel.SysWriteFile)
	s.Observe("", kernel.SysStat) // init-style task, machine-only

	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("encode → decode → encode not byte-identical:\n%s\nvs\n%s", data, data2)
	}
	if got.Mode != "protego" {
		t.Fatalf("mode = %q", got.Mode)
	}
	if p := got.For("/bin/ping"); p == nil || !p.Allows(kernel.SysSocket) || p.Allows(kernel.SysReadFile) {
		t.Fatal("decoded /bin/ping profile wrong")
	}
	if !got.Machine.Allows(kernel.SysStat) {
		t.Fatal("machine union lost a syscall across the round trip")
	}
	// Observing an invalid sysno must be a no-op, not a corrupted mask.
	s.Observe("/bin/ping", kernel.SysInvalid)
	s.Observe("/bin/ping", kernel.Sysno(250))
	if s.For("/bin/ping").Len() != 2 {
		t.Fatal("invalid observation grew the profile")
	}
}

func TestDecodeRejectsUnknownName(t *testing.T) {
	bad := []byte(`{"mode":"linux","defaultAction":"SCMP_ACT_ERRNO",` +
		`"machine":{"names":["open","clone3"],"action":"SCMP_ACT_ALLOW"},"binaries":[]}`)
	_, err := Decode(bad)
	if err == nil || !strings.Contains(err.Error(), "clone3") {
		t.Fatalf("Decode accepted a stale profile, err=%v", err)
	}
}

// fakeTask is the minimal lsm.Task for exercising the module without a
// kernel: a binary path plus the syscall-filter slot the module owns.
type fakeTask struct {
	pid       int
	binary    string
	filter    any
	filterSet bool
}

func (f *fakeTask) PID() int                    { return f.pid }
func (f *fakeTask) UID() int                    { return 1000 }
func (f *fakeTask) EUID() int                   { return 1000 }
func (f *fakeTask) GID() int                    { return 1000 }
func (f *fakeTask) EGID() int                   { return 1000 }
func (f *fakeTask) Groups() []int               { return nil }
func (f *fakeTask) Capable(caps.Cap) bool       { return false }
func (f *fakeTask) BinaryPath() string          { return f.binary }
func (f *fakeTask) SecurityBlob(string) any     { return nil }
func (f *fakeTask) SetSecurityBlob(string, any) {}
func (f *fakeTask) SyscallFilter() (any, bool)  { return f.filter, f.filterSet }
func (f *fakeTask) SetSyscallFilter(v any)      { f.filter, f.filterSet = v, true }

func testSet() *ProfileSet {
	s := NewSet("linux")
	s.Observe("/bin/ping", kernel.SysSocket)
	s.Observe("/usr/bin/passwd", kernel.SysWriteFile)
	return s
}

func TestModuleProfileResolution(t *testing.T) {
	m := NewModule(testSet(), false)

	// Cold slot, profiled binary path → that binary's profile.
	tk := &fakeTask{pid: 1, binary: "/bin/ping"}
	if dec, _ := m.TaskSyscall(tk, int(kernel.SysSocket), "socket"); dec != lsm.NoOpinion {
		t.Fatalf("in-profile syscall: dec=%v, want NoOpinion", dec)
	}
	if dec, _ := m.TaskSyscall(tk, int(kernel.SysKill), "kill"); dec != lsm.Deny {
		t.Fatalf("out-of-profile syscall: dec=%v, want Deny", dec)
	}

	// Cold slot, unprofiled binary → machine union.
	tk = &fakeTask{pid: 2, binary: "/bin/unknown"}
	if dec, _ := m.TaskSyscall(tk, int(kernel.SysWriteFile), "writefile"); dec != lsm.NoOpinion {
		t.Fatalf("machine-union syscall: dec=%v, want NoOpinion", dec)
	}
	if dec, _ := m.TaskSyscall(tk, int(kernel.SysMount), "mount"); dec != lsm.Deny {
		t.Fatalf("outside machine union: dec=%v, want Deny", dec)
	}

	// ExecCheck into a profiled binary installs its profile in the filter
	// slot; the slot wins over the (stale) binary-path lookup until the
	// next exec.
	tk = &fakeTask{pid: 3, binary: "/bin/ping"}
	if _, err := m.ExecCheck(tk, &lsm.ExecRequest{Path: "/usr/bin/passwd"}); err != nil {
		t.Fatal(err)
	}
	if p, _ := tk.filter.(*Profile); p == nil || p.Binary != "/usr/bin/passwd" {
		t.Fatalf("exec did not swap the filter slot: %v", tk.filter)
	}
	if dec, _ := m.TaskSyscall(tk, int(kernel.SysWriteFile), "writefile"); dec != lsm.NoOpinion {
		t.Fatal("slot profile not consulted after exec")
	}
	// Exec into an unprofiled binary stores nil → machine union.
	if _, err := m.ExecCheck(tk, &lsm.ExecRequest{Path: "/bin/unknown"}); err != nil {
		t.Fatal(err)
	}
	if p, _ := tk.filter.(*Profile); p != nil || !tk.filterSet {
		t.Fatalf("exec into unprofiled binary left slot %v (populated %v)", tk.filter, tk.filterSet)
	}
	if dec, _ := m.TaskSyscall(tk, int(kernel.SysMount), "mount"); dec != lsm.Deny {
		t.Fatalf("outside machine union after exec: dec=%v, want Deny", dec)
	}
}

func TestModuleAuditRecordsInsteadOfDenying(t *testing.T) {
	m := NewModule(testSet(), true)
	tk := &fakeTask{pid: 7, binary: "/bin/ping"}
	if dec, err := m.TaskSyscall(tk, int(kernel.SysKill), "kill"); dec != lsm.NoOpinion || err != nil {
		t.Fatalf("audit mode denied: dec=%v err=%v", dec, err)
	}
	v := m.TakeViolations()
	if len(v) != 1 || v[0].PID != 7 || v[0].Binary != "/bin/ping" || v[0].Sysno != kernel.SysKill {
		t.Fatalf("violations = %+v", v)
	}
	if again := m.TakeViolations(); len(again) != 0 {
		t.Fatal("TakeViolations did not drain")
	}
}
