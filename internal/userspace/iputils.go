package userspace

import (
	"protego/internal/kernel"
	"protego/internal/netstack"
)

// The remaining high-popularity packages of Table 3: eject (99.24% of
// systems), fping (26.92%), and iputils-tracepath (95.39%). All are setuid
// to root on the baseline and deprivileged on Protego through the same two
// interfaces already studied: umount (§4.2) and raw sockets (§4.1.1).
const (
	BinEject     = "/usr/bin/eject"
	BinFping     = "/usr/bin/fping"
	BinTracepath = "/usr/bin/tracepath"
)

// EjectMain implements eject(1): unmount the removable medium if mounted,
// then eject it. The unmount is governed by the same user/users policy as
// umount — in the trusted binary on the baseline, in the kernel on Protego.
func EjectMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	device := "/dev/cdrom"
	if len(args) == 1 {
		device = args[0]
	} else if len(args) > 1 {
		t.Errorf("usage: eject [device]\n")
		return 1
	}
	if _, err := k.Stat(t, device); err != nil {
		t.Errorf("eject: %s: %v\n", device, err)
		return 1
	}
	maybeExploit(k, t)
	// Find the device's mount point, if any.
	var point string
	for _, m := range k.FS.Mounts() {
		if m.Device == device {
			point = m.Point
			break
		}
	}
	if point != "" {
		if !protego(k) && t.UID() != 0 && !userMayUnmount(k, t, point) {
			t.Errorf("eject: unmount of %s failed: Operation not permitted\n", point)
			return 1
		}
		if err := k.Umount(t, point); err != nil {
			t.Errorf("eject: unmount of %s failed: %v\n", point, err)
			return 1
		}
	}
	t.Printf("%s ejected\n", device)
	return 0
}

// FpingMain implements fping(8): probe several hosts with one ICMP echo
// each and report alive/unreachable per host.
func FpingMain(k *kernel.Kernel, t *kernel.Task) int {
	hosts := t.Argv()[1:]
	if len(hosts) == 0 {
		t.Errorf("usage: fping <host>...\n")
		return 1
	}
	sock, err := k.Socket(t, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_ICMP)
	if err != nil {
		t.Errorf("fping: socket: %v\n", err)
		return 1
	}
	defer k.CloseSocket(t, sock)
	maybeExploit(k, t)
	if !protego(k) && t.UID() != 0 && t.EUID() == 0 {
		if err := k.Seteuid(t, t.UID()); err != nil {
			return 1
		}
	}
	alive := 0
	for _, host := range hosts {
		ip, err := netstack.ParseIP(host)
		if err != nil {
			t.Printf("%s address not found\n", host)
			continue
		}
		pkt := &netstack.Packet{
			Dst: ip, Proto: netstack.IPPROTO_ICMP,
			ICMPType: netstack.ICMPEchoRequest, Payload: []byte("fping"),
		}
		if err := k.SendTo(t, sock, pkt); err != nil {
			t.Printf("%s is unreachable\n", host)
			continue
		}
		if _, err := k.RecvFrom(t, sock, recvTimeout); err != nil {
			t.Printf("%s is unreachable\n", host)
			continue
		}
		alive++
		t.Printf("%s is alive\n", host)
	}
	if alive == 0 {
		return 1
	}
	return 0
}

// TracepathMain implements tracepath(8): UDP path probing like traceroute,
// without needing superuser on modern systems — but the iputils build in
// the study carries the setuid bit for the raw receive path.
func TracepathMain(k *kernel.Kernel, t *kernel.Task) int {
	args := t.Argv()[1:]
	if len(args) != 1 {
		t.Errorf("usage: tracepath <dest>\n")
		return 1
	}
	dest, err := netstack.ParseIP(args[0])
	if err != nil {
		t.Errorf("tracepath: %s: Name or service not known\n", args[0])
		return 1
	}
	sock, err := k.Socket(t, netstack.AF_INET, netstack.SOCK_RAW, netstack.IPPROTO_UDP)
	if err != nil {
		t.Errorf("tracepath: socket: %v\n", err)
		return 1
	}
	defer k.CloseSocket(t, sock)
	maybeExploit(k, t)
	if !protego(k) && t.UID() != 0 && t.EUID() == 0 {
		if err := k.Seteuid(t, t.UID()); err != nil {
			return 1
		}
	}
	for ttl := 1; ttl <= 2; ttl++ {
		pkt := &netstack.Packet{
			Dst: dest, Proto: netstack.IPPROTO_UDP,
			DstPort: 33433 + ttl, TTL: ttl, Payload: []byte("tracepath"),
		}
		if err := k.SendTo(t, sock, pkt); err != nil {
			t.Errorf("tracepath: probe: %v\n", err)
			return 1
		}
		t.Printf("%2d:  %s  asymm\n", ttl, dest)
	}
	t.Printf("     Resume: pmtu 1500\n")
	return 0
}

// installIputils registers the three binaries (called from RegisterAll).
func installIputils(k *kernel.Kernel) {
	k.RegisterBinary(BinEject, EjectMain)
	k.RegisterBinary(BinFping, FpingMain)
	k.RegisterBinary(BinTracepath, TracepathMain)
}
