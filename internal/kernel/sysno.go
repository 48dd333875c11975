package kernel

import (
	"protego/internal/errno"
	"protego/internal/faultinject"
	"protego/internal/lsm"
	"protego/internal/trace"
)

// Sysno is the kernel's syscall catalog number. Every public syscall
// method on Kernel dispatches through the enter() prologue keyed by its
// Sysno, which is also the bit position in a seccomp-style allowlist
// bitmask. Names match the trace names the methods have always emitted,
// so histograms and tooling keyed on them are unaffected by the catalog.
type Sysno uint8

// The syscall catalog. SysInvalid is deliberately zero so an unset Sysno
// can never alias a real syscall.
const (
	SysInvalid Sysno = iota

	// File system.
	SysOpen
	SysRead
	SysWrite
	SysClose
	SysFcntl
	SysStat
	SysAccess
	SysReadFile
	SysWriteFile
	SysAppendFile
	SysMkdir
	SysUnlink
	SysRename
	SysChmod
	SysChown
	SysReadDir
	SysChdir

	// Identity and credentials.
	SysGetuid
	SysGeteuid
	SysGetgid
	SysGetegid
	SysGetpid
	SysSetuid
	SysSeteuid
	SysSetgid
	SysSetgroups

	// Mounts.
	SysMount
	SysUmount

	// Network.
	SysSocket
	SysBind
	SysListen
	SysAccept
	SysConnect
	SysSend
	SysRecv
	SysSendTo
	SysRecvFrom
	SysCloseSock
	SysAddRoute
	SysDelRoute

	// Devices, signals, processes.
	SysIoctl
	SysSigAction
	SysKill
	SysExec

	sysnoCount
)

// NumSysno is the catalog size, including the SysInvalid slot; seccomp
// bitmask filters are sized by it.
const NumSysno = int(sysnoCount)

// sysNames are the catalog's trace names, indexed by Sysno.
var sysNames = [sysnoCount]string{
	SysInvalid:    "invalid",
	SysOpen:       "open",
	SysRead:       "read",
	SysWrite:      "write",
	SysClose:      "close",
	SysFcntl:      "fcntl",
	SysStat:       "stat",
	SysAccess:     "access",
	SysReadFile:   "readfile",
	SysWriteFile:  "writefile",
	SysAppendFile: "appendfile",
	SysMkdir:      "mkdir",
	SysUnlink:     "unlink",
	SysRename:     "rename",
	SysChmod:      "chmod",
	SysChown:      "chown",
	SysReadDir:    "readdir",
	SysChdir:      "chdir",
	SysGetuid:     "getuid",
	SysGeteuid:    "geteuid",
	SysGetgid:     "getgid",
	SysGetegid:    "getegid",
	SysGetpid:     "getpid",
	SysSetuid:     "setuid",
	SysSeteuid:    "seteuid",
	SysSetgid:     "setgid",
	SysSetgroups:  "setgroups",
	SysMount:      "mount",
	SysUmount:     "umount",
	SysSocket:     "socket",
	SysBind:       "bind",
	SysListen:     "listen",
	SysAccept:     "accept",
	SysConnect:    "connect",
	SysSend:       "send",
	SysRecv:       "recv",
	SysSendTo:     "sendto",
	SysRecvFrom:   "recvfrom",
	SysCloseSock:  "closesock",
	SysAddRoute:   "addroute",
	SysDelRoute:   "delroute",
	SysIoctl:      "ioctl",
	SysSigAction:  "sigaction",
	SysKill:       "kill",
	SysExec:       "exec",
}

// String returns the syscall's trace name.
func (s Sysno) String() string {
	if s >= sysnoCount {
		return "invalid"
	}
	return sysNames[s]
}

// Valid reports whether s names a real catalog entry.
func (s Sysno) Valid() bool { return s > SysInvalid && s < sysnoCount }

// sysByName is the reverse catalog, built once at init.
var sysByName = func() map[string]Sysno {
	m := make(map[string]Sysno, NumSysno)
	for s := SysInvalid + 1; s < sysnoCount; s++ {
		m[sysNames[s]] = s
	}
	return m
}()

// FromName resolves a trace name back to its catalog number.
func FromName(name string) (Sysno, bool) {
	s, ok := sysByName[name]
	return s, ok
}

// Sysnos returns every real catalog entry, in catalog order.
func Sysnos() []Sysno {
	out := make([]Sysno, 0, NumSysno-1)
	for s := SysInvalid + 1; s < sysnoCount; s++ {
		out = append(out, s)
	}
	return out
}

// sysFaultSites maps a Sysno to its syscall-entry fault-injection site.
// Only the sites the fault sweep has always covered exist; an empty entry
// means the syscall has no entry-point injection site. enter() reads it,
// so the table is the whole of the entry-point fault behaviour.
var sysFaultSites = [sysnoCount]string{
	SysOpen:      faultinject.SiteSysOpen,
	SysRead:      faultinject.SiteSysRead,
	SysWrite:     faultinject.SiteSysWrite,
	SysReadFile:  faultinject.SiteSysReadFile,
	SysWriteFile: faultinject.SiteSysWriteFile,
	SysMount:     faultinject.SiteSysMount,
	SysUmount:    faultinject.SiteSysUmount,
	SysExec:      faultinject.SiteSysExec,
	SysSocket:    faultinject.SiteSysSocket,
	SysBind:      faultinject.SiteSysBind,
	SysSetuid:    faultinject.SiteSysSetuid,
}

// enter is the single syscall-entry prologue: every public syscall method
// dispatches through it. It (1) begins the trace sample, (2) consults the
// TaskSyscall LSM hook when a syscall mediator (a seccomp module or
// recorder) has joined the LSM chain — a Deny fails the call closed with
// ENOSYS before any syscall work happens — and (3) registers the
// entry-point fault-injection site. The returned token must reach
// Trace.SyscallExit on every return path (methods defer it); a non-nil
// error means the syscall body must not run.
//
// The gate is the chain's own record that a mediator joined
// (lsm.Chain.SyscallMediated): a machine without one pays a length check
// here.
func (k *Kernel) enter(t *Task, sn Sysno) (trace.SyscallToken, error) {
	tok := k.sysEnter(sn, t)
	if t != nil && k.LSM.SyscallMediated() {
		dec, err := k.LSM.TaskSyscall(t, int(sn), sn.String())
		if dec == lsm.Deny {
			k.Auditf("syscall denied by seccomp: pid=%d uid=%d sys=%s bin=%s",
				t.PID(), t.UID(), sn, t.BinaryPath())
			return tok, denyErr(err, errno.ENOSYS)
		}
	}
	if site := sysFaultSites[sn]; site != "" {
		if err := k.faultCheck(site); err != nil {
			return tok, err
		}
	}
	return tok, nil
}
