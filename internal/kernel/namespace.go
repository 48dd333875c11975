package kernel

import (
	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/netstack"
)

// Namespace unshare flags (a subset of clone(2)'s CLONE_NEW*).
const (
	CLONE_NEWUSER = 0x10000000
	CLONE_NEWNET  = 0x40000000
)

// netNS is the per-task namespace state.
type netNS struct {
	stack *netstack.Stack
	// owner is the uid that created the namespace; inside it, that uid
	// holds namespace-local privilege ("a process can appear to have
	// any capability, but any externally visible operation is subject
	// to the original user's privilege", §6).
	owner int
}

// blobNetNS keys the task's network namespace in its security blobs (so it
// is inherited across fork, like Linux namespaces).
const blobNetNS = "kernel.netns"

// blobUserNS marks membership in a user namespace.
const blobUserNS = "kernel.userns"

// UnprivNamespaces models the kernel version split of §4.6: Linux ≥3.8
// allows unprivileged user+network namespaces ("the security implications
// are now better understood"); earlier kernels require CAP_SYS_ADMIN,
// which is why chromium-sandbox shipped setuid-to-root. The baseline is
// Linux 3.6.0, the paper's base, so only a Protego kernel allows them:
// Protego targets current kernels, where even chromium-sandbox needs no
// setuid bit.
func (k *Kernel) UnprivNamespaces() bool {
	return k.Mode == ModeProtego
}

// Unshare implements unshare(2) for user and network namespaces.
//
//   - CLONE_NEWUSER: permitted for unprivileged tasks only when the kernel
//     allows unprivileged namespaces; the task becomes "namespace root"
//     without gaining any host privilege.
//   - CLONE_NEWNET: requires CAP_SYS_ADMIN, or a simultaneous/prior user
//     namespace. The task receives a fresh, isolated network stack with a
//     private address and no link to the outside world.
func (k *Kernel) Unshare(t *Task, flags int) error {
	if flags&^(CLONE_NEWUSER|CLONE_NEWNET) != 0 {
		return errno.EINVAL
	}
	if flags == 0 {
		return errno.EINVAL
	}
	newUser := flags&CLONE_NEWUSER != 0
	newNet := flags&CLONE_NEWNET != 0

	if newUser {
		if !t.Capable(caps.CAP_SYS_ADMIN) && !k.UnprivNamespaces() {
			k.Auditf("unshare(NEWUSER) denied: pid=%d uid=%d (kernel < 3.8 semantics)", t.PID(), t.UID())
			return errno.EPERM
		}
		t.SetSecurityBlob(blobUserNS, true)
	}
	if newNet {
		inUserNS := t.SecurityBlob(blobUserNS) != nil
		if !t.Capable(caps.CAP_SYS_ADMIN) && !inUserNS {
			k.Auditf("unshare(NEWNET) denied: pid=%d uid=%d", t.PID(), t.UID())
			return errno.EPERM
		}
		// A private stack: loopback plus a private address, no link.
		ns := &netNS{
			stack: netstack.NewStack(netstack.IPv4(10, 200, 0, 2)),
			owner: t.UID(),
		}
		t.SetSecurityBlob(blobNetNS, ns)
	}
	return nil
}

// netNSOf returns the task's private network namespace, or nil when it
// uses the host network.
func (k *Kernel) netNSOf(t *Task) *netNS {
	v := t.SecurityBlob(blobNetNS)
	if v == nil {
		return nil
	}
	ns, _ := v.(*netNS)
	return ns
}

// stackFor resolves the network stack a task's socket operations use.
func (k *Kernel) stackFor(t *Task) *netstack.Stack {
	if ns := k.netNSOf(t); ns != nil {
		return ns.stack
	}
	return k.Net
}

// nsPrivileged reports namespace-local privilege: the creator of a network
// namespace is "root inside" for operations confined to that namespace.
func (k *Kernel) nsPrivileged(t *Task) bool {
	ns := k.netNSOf(t)
	return ns != nil && ns.owner == t.UID()
}
