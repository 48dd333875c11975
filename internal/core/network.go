package core

import (
	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/lsm"
	"protego/internal/netstack"
)

// SocketCreate grants raw and packet sockets to unprivileged tasks
// (§4.1.1). The kernel tags granted sockets as unprivileged-raw, so every
// packet they emit traverses the netfilter OUTPUT rules installed by
// Install — benign ICMP passes, spoofed or fabricated TCP/UDP is dropped.
// This is strictly stronger than the baseline: on Linux a compromised ping
// (running with CAP_NET_RAW) can spoof packets from other sockets; on
// Protego it cannot.
func (m *Module) SocketCreate(t lsm.Task, req *lsm.SocketRequest) (lsm.Decision, error) {
	raw := req.Type == netstack.SOCK_RAW || req.Family == netstack.AF_PACKET
	if !raw || t.Capable(capNetRaw) {
		return lsm.NoOpinion, nil
	}
	m.mu.RLock()
	allow := m.allowUnprivRaw
	m.mu.RUnlock()
	if !allow {
		return lsm.NoOpinion, nil
	}
	req.MarkUnprivRaw = true
	m.bumpStat(&m.Stats.RawSockGrants)
	return lsm.Grant, nil
}

// IoctlCheck mediates the privileged device ioctls of Table 4:
//
//   - route additions (SIOCADDRT): granted to unprivileged tasks when the
//     administrator enabled user routes in /etc/ppp/options AND the new
//     route does not conflict with any existing route (§4.1.2);
//   - route deletions: granted only for routes the same user created;
//   - modem session parameters (PPPIOCSPARAM): granted for parameters the
//     ppp policy marks safe (compression, congestion control, ...);
//   - modem attach (PPPIOCATTACH): granted for whitelisted devices that
//     are not in use by another user;
//   - dmcrypt metadata (DMGETINFO): never granted — the ioctl discloses
//     key material, so Protego abandons it for a /sys file that exposes
//     only the physical device (the interface-design fix of §4);
//   - video mode setting (VIDIOCSMODE): granted, because with KMS the
//     kernel owns video state context switching (§4.5) and drawing needs
//     no privilege.
func (m *Module) IoctlCheck(t lsm.Task, req *lsm.IoctlRequest) (lsm.Decision, error) {
	switch req.Cmd {
	case kernel.SIOCADDRT:
		return m.checkRouteAdd(t, req)
	case kernel.SIOCDELRT:
		return m.checkRouteDel(t, req)
	case kernel.PPPIOCSPARAM:
		return m.checkPPPParam(t, req)
	case kernel.PPPIOCATTACH:
		return m.checkPPPAttach(t, req)
	case kernel.PPPIOCDETACH:
		return lsm.Grant, nil // detaching your own session is harmless
	case kernel.DMGETINFO:
		// Root-only forever; unprivileged readers use /sys.
		return lsm.NoOpinion, nil
	case kernel.VIDIOCSMODE:
		return lsm.Grant, nil
	default:
		return lsm.NoOpinion, nil
	}
}

func (m *Module) checkRouteAdd(t lsm.Task, req *lsm.IoctlRequest) (lsm.Decision, error) {
	if t.Capable(capNetAdmin) {
		return lsm.NoOpinion, nil
	}
	m.mu.RLock()
	allowed := m.ppp != nil && m.ppp.AllowUserRoutes
	m.mu.RUnlock()
	if !allowed {
		return lsm.NoOpinion, nil
	}
	route, ok := req.Arg.(netstack.Route)
	if !ok {
		return lsm.Deny, errno.EINVAL
	}
	// The route-integrity check: a new unprivileged route must not
	// conflict with (overlap) any existing route.
	if m.k.Net.RouteConflicts(route) {
		m.bumpStat(&m.Stats.RouteDenials)
		return lsm.Deny, errno.EPERM
	}
	m.bumpStat(&m.Stats.RouteGrants)
	return lsm.Grant, nil
}

func (m *Module) checkRouteDel(t lsm.Task, req *lsm.IoctlRequest) (lsm.Decision, error) {
	if t.Capable(capNetAdmin) {
		return lsm.NoOpinion, nil
	}
	want, ok := req.Arg.(netstack.Route)
	if !ok {
		return lsm.Deny, errno.EINVAL
	}
	for _, r := range m.k.Net.Routes() {
		if r.Dest == want.Dest && r.PrefixLen == want.PrefixLen {
			if r.CreatedBy == t.UID() && r.CreatedBy != 0 {
				return lsm.Grant, nil
			}
			return lsm.NoOpinion, nil
		}
	}
	return lsm.NoOpinion, nil
}

func (m *Module) checkPPPParam(t lsm.Task, req *lsm.IoctlRequest) (lsm.Decision, error) {
	if t.Capable(capNetAdmin) {
		return lsm.NoOpinion, nil
	}
	kv, ok := req.Arg.([2]string)
	if !ok {
		return lsm.Deny, errno.EINVAL
	}
	m.mu.RLock()
	safe := m.ppp != nil && m.ppp.ParamSafe(kv[0])
	m.mu.RUnlock()
	if safe {
		return lsm.Grant, nil
	}
	return lsm.NoOpinion, nil
}

func (m *Module) checkPPPAttach(t lsm.Task, req *lsm.IoctlRequest) (lsm.Decision, error) {
	if t.Capable(capNetAdmin) {
		return lsm.NoOpinion, nil
	}
	m.mu.RLock()
	allowed := m.ppp != nil && m.ppp.DeviceAllowed(req.Path)
	m.mu.RUnlock()
	if !allowed {
		return lsm.NoOpinion, nil
	}
	// A modem already in use by a different user may not be reconfigured
	// ("a user may configure a modem (if not in use)").
	name, ok := req.Arg.(string)
	if !ok {
		return lsm.Deny, errno.EINVAL
	}
	if m.k.Net.ModemBusy(name, t.UID()) {
		return lsm.Deny, errno.EBUSY
	}
	return lsm.Grant, nil
}
