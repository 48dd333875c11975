// Package caps models Linux file system capabilities — the coarse, 36-way
// fragmentation of root privilege studied in Section 3.2 of the Protego
// paper. The simulated kernel grants all capabilities to euid-0 tasks by
// default (as Linux does) and LSMs consult these bits through the Capable
// hook. The point of the Protego reproduction is precisely that these bits
// are too coarse: a Cap answers "is the requester root-ish?", never "may any
// user take this action on this object?".
package caps

import (
	"fmt"
	"strings"
)

// Cap identifies a single Linux capability.
type Cap uint8

// Capability numbers follow include/uapi/linux/capability.h.
const (
	CAP_CHOWN            Cap = 0
	CAP_DAC_OVERRIDE     Cap = 1
	CAP_DAC_READ_SEARCH  Cap = 2
	CAP_FOWNER           Cap = 3
	CAP_FSETID           Cap = 4
	CAP_KILL             Cap = 5
	CAP_SETGID           Cap = 6
	CAP_SETUID           Cap = 7
	CAP_SETPCAP          Cap = 8
	CAP_LINUX_IMMUTABLE  Cap = 9
	CAP_NET_BIND_SERVICE Cap = 10
	CAP_NET_BROADCAST    Cap = 11
	CAP_NET_ADMIN        Cap = 12
	CAP_NET_RAW          Cap = 13
	CAP_IPC_LOCK         Cap = 14
	CAP_IPC_OWNER        Cap = 15
	CAP_SYS_MODULE       Cap = 16
	CAP_SYS_RAWIO        Cap = 17
	CAP_SYS_CHROOT       Cap = 18
	CAP_SYS_PTRACE       Cap = 19
	CAP_SYS_PACCT        Cap = 20
	CAP_SYS_ADMIN        Cap = 21
	CAP_SYS_BOOT         Cap = 22
	CAP_SYS_NICE         Cap = 23
	CAP_SYS_RESOURCE     Cap = 24
	CAP_SYS_TIME         Cap = 25
	CAP_SYS_TTY_CONFIG   Cap = 26
	CAP_MKNOD            Cap = 27
	CAP_LEASE            Cap = 28
	CAP_AUDIT_WRITE      Cap = 29
	CAP_AUDIT_CONTROL    Cap = 30
	CAP_SETFCAP          Cap = 31
	CAP_MAC_OVERRIDE     Cap = 32
	CAP_MAC_ADMIN        Cap = 33
	CAP_SYSLOG           Cap = 34
	CAP_WAKE_ALARM       Cap = 35

	// NumCaps is the number of defined capabilities.
	NumCaps = 36
)

var capNames = [NumCaps]string{
	"CAP_CHOWN", "CAP_DAC_OVERRIDE", "CAP_DAC_READ_SEARCH", "CAP_FOWNER",
	"CAP_FSETID", "CAP_KILL", "CAP_SETGID", "CAP_SETUID", "CAP_SETPCAP",
	"CAP_LINUX_IMMUTABLE", "CAP_NET_BIND_SERVICE", "CAP_NET_BROADCAST",
	"CAP_NET_ADMIN", "CAP_NET_RAW", "CAP_IPC_LOCK", "CAP_IPC_OWNER",
	"CAP_SYS_MODULE", "CAP_SYS_RAWIO", "CAP_SYS_CHROOT", "CAP_SYS_PTRACE",
	"CAP_SYS_PACCT", "CAP_SYS_ADMIN", "CAP_SYS_BOOT", "CAP_SYS_NICE",
	"CAP_SYS_RESOURCE", "CAP_SYS_TIME", "CAP_SYS_TTY_CONFIG", "CAP_MKNOD",
	"CAP_LEASE", "CAP_AUDIT_WRITE", "CAP_AUDIT_CONTROL", "CAP_SETFCAP",
	"CAP_MAC_OVERRIDE", "CAP_MAC_ADMIN", "CAP_SYSLOG", "CAP_WAKE_ALARM",
}

// String returns the symbolic name of the capability.
func (c Cap) String() string {
	if int(c) < len(capNames) {
		return capNames[c]
	}
	return fmt.Sprintf("CAP_%d", uint8(c))
}

// Set is a bitmask of capabilities. The zero value is the empty set.
type Set uint64

// Empty is the capability set with no capabilities.
const Empty Set = 0

// Full returns the set containing every defined capability — what Linux
// grants a process running as root.
func Full() Set {
	return Set(1)<<NumCaps - 1
}

// Has reports whether c is in the set.
func (s Set) Has(c Cap) bool { return s&(1<<uint(c)) != 0 }

// IsEmpty reports whether no capability is present.
func (s Set) IsEmpty() bool { return s == 0 }

// Count returns the number of capabilities in the set.
func (s Set) Count() int {
	n := 0
	for v := s; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// List returns the capabilities present, in numeric order.
func (s Set) List() []Cap {
	var out []Cap
	for c := Cap(0); c < NumCaps; c++ {
		if s.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// String renders the set as a comma-separated list of symbolic names; the
// empty set renders as "(none)" and the full set as "(all)".
func (s Set) String() string {
	if s.IsEmpty() {
		return "(none)"
	}
	if s == Full() {
		return "(all)"
	}
	names := make([]string, 0, s.Count())
	for _, c := range s.List() {
		names = append(names, c.String())
	}
	return strings.Join(names, ",")
}
