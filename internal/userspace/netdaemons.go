package userspace

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"protego/internal/kernel"
	"protego/internal/netfilter"
	"protego/internal/netstack"
	"protego/internal/policy"
)

// PppDevice is the PPP control device. Protego changed its file system
// permissions to be more permissive, replacing a capability check with
// device file permissions (§4.1.2).
const PppDevice = "/dev/ppp"

// PppdMain implements the PPP daemon's privileged surface:
//
//	pppd <iface> [--param key=value]... [--route a.b.c.d/len]...
//
// Baseline: setuid root; when invoked by a non-root user it enforces the
// /etc/ppp/options policy itself (safe session parameters only; routes
// only if enabled and overlapping neither an installed route nor an
// earlier route of the same request), read through the parser the
// kernel's policy uses, and then issues the privileged ioctls with euid 0.
// Protego: it just issues the ioctls; the kernel's LSM enforces the same
// policy (and the route-conflict check, which sees each route the session
// added before).
func PppdMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) < 1 {
		t.Errorf("usage: pppd <iface> [--param k=v] [--route ip/len]\n")
		return 1
	}
	iface := args[0]
	var params [][2]string
	var routes []netstack.Route
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "--param"):
			kv := strings.TrimPrefix(a, "--param=")
			key, val := splitKV(kv)
			params = append(params, [2]string{key, val})
		case strings.HasPrefix(a, "--route="):
			spec := strings.TrimPrefix(a, "--route=")
			route, err := parseRouteSpec(spec, iface)
			if err != nil {
				t.Errorf("pppd: bad route %q\n", spec)
				return 1
			}
			routes = append(routes, route)
		default:
			t.Errorf("pppd: unknown argument %q\n", a)
			return 1
		}
	}

	maybeExploit(k, t)

	if !protego(k) && t.UID() != 0 {
		// Trusted-binary policy enforcement: parse /etc/ppp/options
		// and refuse unsafe requests before using euid-0 powers.
		if t.EUID() != 0 {
			t.Errorf("pppd: must be setuid root\n")
			return 1
		}
		data, err := k.ReadFile(t, "/etc/ppp/options")
		if err != nil {
			t.Errorf("pppd: cannot read options: %v\n", err)
			return 1
		}
		opts, err := policy.MemoPPPOptions(k.FS.Memo(), data)
		if err != nil {
			t.Errorf("pppd: %v\n", err)
			return 1
		}
		if !opts.DeviceAllowed(PppDevice) {
			t.Errorf("pppd: device not permitted for users\n")
			return 1
		}
		for _, p := range params {
			if !opts.ParamSafe(p[0]) {
				t.Errorf("pppd: option %q not permitted\n", p[0])
				return 1
			}
		}
		for i, r := range routes {
			if !opts.AllowUserRoutes || k.Net.RouteConflicts(r) || slices.ContainsFunc(routes[:i], r.Overlaps) {
				t.Errorf("pppd: route %s not permitted\n", r)
				return 1
			}
		}
	}

	if err := k.Ioctl(t, PppDevice, kernel.PPPIOCATTACH, iface); err != nil {
		t.Errorf("pppd: attach %s: %v\n", iface, err)
		return 1
	}
	// Once attached, a failed parameter or route request must tear the
	// session back down, the routes it added first; otherwise a refusal on
	// Protego (where the checks happen at the ioctl, after attach) would
	// strand the modem in-use and the routes installed while the baseline
	// (which pre-checks before any euid-0 action) leaves both as they were.
	// A teardown step's error is dropped: pppd exits 1 either way.
	var added []netstack.Route
	fail := func() int {
		for _, r := range added {
			_ = k.DelRoute(t, r.Dest, r.PrefixLen)
		}
		_ = k.Ioctl(t, PppDevice, kernel.PPPIOCDETACH, iface)
		return 1
	}
	for _, p := range params {
		if err := k.Ioctl(t, PppDevice, kernel.PPPIOCSPARAM, p); err != nil {
			t.Errorf("pppd: set %s: %v\n", p[0], err)
			return fail()
		}
	}
	for _, r := range routes {
		if err := k.AddRoute(t, r); err != nil {
			t.Errorf("pppd: route %s: %v\n", r, err)
			return fail()
		}
		added = append(added, r)
	}
	t.Printf("pppd: %s up\n", iface)
	return 0
}

func parseRouteSpec(spec, iface string) (netstack.Route, error) {
	slash := strings.IndexByte(spec, '/')
	if slash < 0 {
		return netstack.Route{}, strconv.ErrSyntax
	}
	ip, err := netstack.ParseIP(spec[:slash])
	if err != nil {
		return netstack.Route{}, err
	}
	prefix, err := strconv.Atoi(spec[slash+1:])
	if err != nil || prefix < 0 || prefix > 32 {
		return netstack.Route{}, strconv.ErrSyntax
	}
	return netstack.Route{Dest: ip, PrefixLen: prefix, Iface: iface, Metric: 10}, nil
}

// MailSpoolDir receives delivered messages.
const MailSpoolDir = "/var/mail"

// SMTPPort is the privileged port exim binds.
const SMTPPort = 25

// EximMain implements the mail server surface used by the Postal-style
// benchmark and the bind-policy tests:
//
//	exim4 serve <n>          accept and deliver n messages, then exit
//	exim4 send <rcpt> <msg>  submit a message to the local server
//
// Baseline: started as root to pass the CAP_NET_BIND_SERVICE check, then
// drops privilege after binding. Protego: started directly as the
// Debian-exim user; the kernel's /etc/bind allocation grants port 25 to
// this (binary, uid) instance only (§4.1.3).
func EximMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) < 1 {
		t.Errorf("usage: exim4 serve <n> | send <rcpt> <msg>\n")
		return 1
	}
	switch args[0] {
	case "serve":
		if len(args) != 2 {
			t.Errorf("exim4: serve needs a count\n")
			return 1
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 0 {
			t.Errorf("exim4: bad count %q\n", args[1])
			return 1
		}
		return eximServe(k, t, n)
	case "send":
		if len(args) != 3 {
			t.Errorf("exim4: send needs <rcpt> <msg>\n")
			return 1
		}
		return eximSend(k, t, args[1], args[2])
	default:
		t.Errorf("exim4: unknown command %q\n", args[0])
		return 1
	}
}

func eximServe(k *kernel.Kernel, t *kernel.Task, n int) int {
	// Historical exim CVEs (2010-2023, 2010-2024) ran while root on the
	// baseline, during startup before the privilege drop.
	maybeExploit(k, t)
	sock, err := k.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		t.Errorf("exim4: socket: %v\n", err)
		return 1
	}
	defer k.CloseSocket(t, sock)
	if err := k.Bind(t, sock, SMTPPort); err != nil {
		t.Errorf("exim4: cannot bind port %d: %v\n", SMTPPort, err)
		return 1
	}
	if err := k.Listen(t, sock, 64); err != nil {
		t.Errorf("exim4: listen: %v\n", err)
		return 1
	}
	if !protego(k) && t.UID() != 0 && t.EUID() == 0 {
		if err := k.Seteuid(t, t.UID()); err != nil {
			return 1
		}
	}
	for i := 0; i < n; i++ {
		conn, err := k.Accept(t, sock, 2*time.Second)
		if err != nil {
			t.Errorf("exim4: accept: %v\n", err)
			return 1
		}
		data, err := k.Recv(t, conn, 2*time.Second)
		if err != nil {
			continue
		}
		rcpt, msg := splitKV(string(data))
		if rcpt == "" {
			continue
		}
		spool := MailSpoolDir + "/" + rcpt
		if err := k.AppendFile(t, spool, []byte(msg+"\n")); err != nil {
			_ = k.WriteFile(t, spool, []byte(msg+"\n"))
		}
		_, _ = k.Send(t, conn, []byte("250 OK"))
	}
	return 0
}

func eximSend(k *kernel.Kernel, t *kernel.Task, rcpt, msg string) int {
	sock, err := k.Socket(t, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
	if err != nil {
		t.Errorf("exim4: socket: %v\n", err)
		return 1
	}
	defer k.CloseSocket(t, sock)
	if err := k.Connect(t, sock, k.Net.HostIP(), SMTPPort); err != nil {
		t.Errorf("exim4: connect: %v\n", err)
		return 1
	}
	if _, err := k.Send(t, sock, []byte(rcpt+"="+msg)); err != nil {
		t.Errorf("exim4: send: %v\n", err)
		return 1
	}
	if _, err := k.Recv(t, sock, 2*time.Second); err != nil {
		t.Errorf("exim4: no ack: %v\n", err)
		return 1
	}
	return 0
}

// IptablesMain is the administrator's interface to the netfilter table —
// the paper extends iptables by 175 lines for the raw-socket rules. Only
// the flavors the evaluation needs are implemented:
//
//	iptables -S                                    list rules
//	iptables -A OUTPUT -p <proto> [-m unprivraw] -j <ACCEPT|DROP>
//	iptables -F OUTPUT                             flush
func IptablesMain(k *kernel.Kernel, t *kernel.Task) int {
	if t.EUID() != 0 {
		t.Errorf("iptables: permission denied (you must be root)\n")
		return 1
	}
	args := t.Argv()[1:]
	if len(args) == 0 || args[0] == "-S" {
		t.Printf("%s", k.Filter.List())
		return 0
	}
	switch args[0] {
	case "-F":
		if len(args) != 2 {
			t.Errorf("iptables: -F needs a chain\n")
			return 1
		}
		if err := k.Filter.Flush(args[1]); err != nil {
			t.Errorf("iptables: %v\n", err)
			return 1
		}
		return 0
	case "-A":
		rule, chain, err := parseIptablesAppend(args[1:])
		if err != nil {
			t.Errorf("iptables: %v\n", err)
			return 1
		}
		if err := k.Filter.Append(chain, rule); err != nil {
			t.Errorf("iptables: %v\n", err)
			return 1
		}
		return 0
	default:
		t.Errorf("iptables: unsupported command %q\n", args[0])
		return 1
	}
}

func parseIptablesAppend(args []string) (*netfilter.Rule, string, error) {
	if len(args) < 1 {
		return nil, "", strconv.ErrSyntax
	}
	chain := args[0]
	rule := &netfilter.Rule{Proto: netfilter.AnyProto, Verdict: netfilter.Accept}
	for i := 1; i < len(args); i++ {
		switch args[i] {
		case "-p":
			i++
			if i >= len(args) {
				return nil, "", strconv.ErrSyntax
			}
			switch args[i] {
			case "icmp":
				rule.Proto = netstack.IPPROTO_ICMP
			case "tcp":
				rule.Proto = netstack.IPPROTO_TCP
			case "udp":
				rule.Proto = netstack.IPPROTO_UDP
			default:
				return nil, "", strconv.ErrSyntax
			}
		case "-m":
			i++
			if i >= len(args) {
				return nil, "", strconv.ErrSyntax
			}
			switch args[i] {
			case "unprivraw":
				rule.UnprivRawOnly = true
			case "spoofed":
				rule.SpoofedOnly = true
			}
		case "-j":
			i++
			if i >= len(args) {
				return nil, "", strconv.ErrSyntax
			}
			if args[i] == "DROP" {
				rule.Verdict = netfilter.Drop
			}
		}
	}
	return rule, chain, nil
}
