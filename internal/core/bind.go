package core

import (
	"fmt"
	"sort"

	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/netstack"
)

type bindKey struct {
	proto int // IPPROTO_TCP or IPPROTO_UDP
	port  int
}

// BindTarget is the single application instance a privileged port is
// allocated to: a (binary path, uid) pair (§4.1.3). User is the name the
// /etc/bind row gave, resolved to UID when the row was written.
type BindTarget struct {
	Binary string
	UID    int
	User   string
}

// BindAllocations renders the table as /etc/bind rows, sorted, for /proc
// reads: the text read back is text the bind writer takes.
func (m *Module) BindAllocations() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var lines []string
	for k, v := range m.bindTable {
		proto := "tcp"
		if k.proto == netstack.IPPROTO_UDP {
			proto = "udp"
		}
		lines = append(lines, fmt.Sprintf("%d %s %s %s", k.port, proto, v.Binary, v.User))
	}
	sort.Strings(lines)
	return lines
}

// BindCheck enforces the allocation: if a privileged port is allocated, only
// the matching (binary, uid) instance may bind it — even a privileged
// caller may not hijack another service's port (closing the "malicious web
// server also acts as a mail server" hole). Unallocated ports fall back to
// base policy (CAP_NET_BIND_SERVICE).
func (m *Module) BindCheck(t lsm.Task, req *lsm.BindRequest) (lsm.Decision, error) {
	proto := req.Proto
	if proto == 0 || proto == netstack.IPPROTO_IP {
		if req.Type == netstack.SOCK_STREAM {
			proto = netstack.IPPROTO_TCP
		} else {
			proto = netstack.IPPROTO_UDP
		}
	}
	m.mu.RLock()
	target, allocated := m.bindTable[bindKey{proto: proto, port: req.Port}]
	m.mu.RUnlock()
	if !allocated {
		return lsm.NoOpinion, nil
	}
	if target.Binary == t.BinaryPath() && target.UID == t.EUID() {
		m.bumpStat(&m.Stats.BindGrants)
		return lsm.Grant, nil
	}
	m.bumpStat(&m.Stats.BindDenials)
	return lsm.Deny, errno.EACCES
}
