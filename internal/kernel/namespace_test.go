package kernel

import (
	"testing"
	"time"

	"protego/internal/errno"
	"protego/internal/netstack"
	"protego/internal/vfs"
)

func TestUnshareRequiresPrivilegeOnOldKernels(t *testing.T) {
	k := testKernel(t) // the baseline: pre-3.8 semantics
	user := userTask(k, 1000, 100)
	if err := k.Unshare(user, CLONE_NEWUSER); err != errno.EPERM {
		t.Fatalf("unprivileged NEWUSER on old kernel: %v", err)
	}
	if err := k.Unshare(user, CLONE_NEWNET); err != errno.EPERM {
		t.Fatalf("unprivileged NEWNET: %v", err)
	}
	root := k.InitTask()
	if err := k.Unshare(root, CLONE_NEWUSER|CLONE_NEWNET); err != nil {
		t.Fatalf("privileged unshare: %v", err)
	}
}

func TestUnshareUnprivilegedOnModernKernels(t *testing.T) {
	k := testKernelIn(t, ModeProtego)
	user := userTask(k, 1000, 100)
	if err := k.Unshare(user, CLONE_NEWUSER|CLONE_NEWNET); err != nil {
		t.Fatalf("unshare: %v", err)
	}
	if user.SecurityBlob(blobUserNS) == nil {
		t.Fatal("user namespace not recorded")
	}
	if k.stackFor(user) == k.Net {
		t.Fatal("network namespace not private")
	}
	// NEWNET still requires a user namespace (or caps) even on modern
	// kernels.
	fresh := userTask(k, 1001, 100)
	if err := k.Unshare(fresh, CLONE_NEWNET); err != errno.EPERM {
		t.Fatalf("bare NEWNET: %v", err)
	}
}

func TestUnshareInvalidFlags(t *testing.T) {
	k := testKernel(t)
	root := k.InitTask()
	if err := k.Unshare(root, 0); err != errno.EINVAL {
		t.Fatalf("zero flags: %v", err)
	}
	if err := k.Unshare(root, 0x1); err != errno.EINVAL {
		t.Fatalf("unknown flags: %v", err)
	}
}

func TestNamespaceLocalRawSockets(t *testing.T) {
	k := testKernelIn(t, ModeProtego)
	user := userTask(k, 1000, 100)
	// Outside a namespace: raw denied (no LSM grant on this bare kernel).
	if _, err := k.Socket(user, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP); err != errno.EPERM {
		t.Fatalf("raw outside ns: %v", err)
	}
	if err := k.Unshare(user, CLONE_NEWUSER|CLONE_NEWNET); err != nil {
		t.Fatal(err)
	}
	// Inside: namespace-local privilege suffices, and the socket is not
	// tagged for host raw-socket filtering (it never touches the host).
	sock, err := k.Socket(user, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP)
	if err != nil {
		t.Fatalf("raw inside ns: %v", err)
	}
	if sock.UnprivRaw {
		t.Fatal("namespace socket tagged unpriv-raw")
	}
	// ICMP echo works against the namespace's own address.
	pkt := &netstack.Packet{
		Dst: netstack.IPv4(10, 200, 0, 2), Proto: netstack.IPPROTO_ICMP,
		ICMPType: netstack.ICMPEchoRequest, Payload: []byte("x"),
	}
	if err := k.SendTo(user, sock, pkt); err != nil {
		t.Fatalf("ns ping: %v", err)
	}
	if _, err := k.RecvFrom(user, sock, time.Second); err != nil {
		t.Fatalf("ns echo: %v", err)
	}
}

func TestNamespaceCannotReachHost(t *testing.T) {
	k := testKernelIn(t, ModeProtego)
	// A host service is listening.
	root := k.InitTask()
	hostSock, err := k.Socket(root, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Bind(root, hostSock, 80); err != nil {
		t.Fatal(err)
	}
	if err := k.Listen(root, hostSock, 4); err != nil {
		t.Fatal(err)
	}
	// The sandboxed task cannot reach it.
	user := userTask(k, 1000, 100)
	if err := k.Unshare(user, CLONE_NEWUSER|CLONE_NEWNET); err != nil {
		t.Fatal(err)
	}
	client, err := k.Socket(user, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Connect(user, client, netstack.IPv4(10, 0, 0, 2), 80); err == nil {
		t.Fatal("sandbox reached the host network")
	}
}

func TestNamespaceRoutesAreLocal(t *testing.T) {
	k := testKernelIn(t, ModeProtego)
	user := userTask(k, 1000, 100)
	if err := k.Unshare(user, CLONE_NEWUSER|CLONE_NEWNET); err != nil {
		t.Fatal(err)
	}
	r := netstack.Route{Dest: netstack.IPv4(10, 0, 0, 0), PrefixLen: 8, Iface: "veth0"}
	// Inside the namespace, the (conflicting-looking) route is fine: it
	// affects only the fake network.
	if err := k.AddRoute(user, r); err != nil {
		t.Fatalf("ns route: %v", err)
	}
	// The host routing table is untouched.
	for _, hostRoute := range k.Net.Routes() {
		if hostRoute.Iface == "veth0" {
			t.Fatal("namespace route leaked to host")
		}
	}
	if err := k.DelRoute(user, r.Dest, r.PrefixLen); err != nil {
		t.Fatalf("ns route del: %v", err)
	}
}

func TestNamespaceSharedResourcesStillPolicyChecked(t *testing.T) {
	// The paper's §6 punchline: "namespaces cannot safely allow access to
	// shared system resources, such as passwd updating the password
	// database". Inside a sandbox, writes to the shared /etc/shadow are
	// still governed by the original user's credentials.
	k := testKernelIn(t, ModeProtego)
	if err := k.FS.WriteFile(vfs.RootCred, "/etc/shadow", []byte("root:x:"), 0o600, 0, 0); err != nil {
		t.Fatal(err)
	}
	user := userTask(k, 1000, 100)
	if err := k.Unshare(user, CLONE_NEWUSER|CLONE_NEWNET); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteFile(user, "/etc/shadow", []byte("pwned")); err == nil {
		t.Fatal("sandboxed task wrote the shared shadow database")
	}
	// Host mounts likewise.
	if _, err := k.FS.Mkdir(vfs.RootCred, "/mnt", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Mount(user, "/dev/x", "/mnt", "ext4", nil); err != errno.EPERM {
		t.Fatalf("sandboxed mount on shared tree: %v", err)
	}
}

func TestNamespaceInheritedAcrossFork(t *testing.T) {
	k := testKernelIn(t, ModeProtego)
	user := userTask(k, 1000, 100)
	if err := k.Unshare(user, CLONE_NEWUSER|CLONE_NEWNET); err != nil {
		t.Fatal(err)
	}
	child := k.Fork(user)
	if k.stackFor(child) != k.stackFor(user) {
		t.Fatal("child not in parent's namespace")
	}
}
