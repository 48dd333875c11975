package netstack

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"protego/internal/errno"
)

func testStack() *Stack { return NewStack(IPv4(10, 0, 0, 2)) }

func TestIPStringParse(t *testing.T) {
	cases := []string{"0.0.0.0", "127.0.0.1", "10.0.0.2", "255.255.255.255", "192.168.1.100"}
	for _, s := range cases {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ip.String() != s {
			t.Fatalf("round trip %s -> %s", s, ip)
		}
	}
	for _, bad := range []string{"", "1.2.3", "256.1.1.1", "a.b.c.d", "-1.0.0.0"} {
		if _, err := ParseIP(bad); err == nil {
			t.Errorf("ParseIP(%q) should fail", bad)
		}
	}
}

func TestIPParseProperty(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		ip := IPv4(a, b, c, d)
		parsed, err := ParseIP(ip.String())
		return err == nil && parsed == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteMatching(t *testing.T) {
	r := Route{Dest: IPv4(10, 0, 0, 0), PrefixLen: 24}
	if !r.Matches(IPv4(10, 0, 0, 200)) {
		t.Fatal("should match inside /24")
	}
	if r.Matches(IPv4(10, 0, 1, 1)) {
		t.Fatal("should not match outside /24")
	}
	def := Route{Dest: 0, PrefixLen: 0}
	if !def.Matches(IPv4(8, 8, 8, 8)) {
		t.Fatal("default route matches everything")
	}
	host := Route{Dest: IPv4(10, 0, 0, 5), PrefixLen: 32}
	if !host.Matches(IPv4(10, 0, 0, 5)) || host.Matches(IPv4(10, 0, 0, 6)) {
		t.Fatal("host route must match exactly")
	}
}

func TestRouteOverlap(t *testing.T) {
	cases := []struct {
		a, b Route
		want bool
	}{
		{Route{Dest: IPv4(10, 0, 0, 0), PrefixLen: 24}, Route{Dest: IPv4(10, 0, 0, 128), PrefixLen: 25}, true},
		{Route{Dest: IPv4(10, 0, 0, 0), PrefixLen: 24}, Route{Dest: IPv4(10, 0, 1, 0), PrefixLen: 24}, false},
		{Route{Dest: 0, PrefixLen: 0}, Route{Dest: IPv4(1, 2, 3, 4), PrefixLen: 32}, true},
		{Route{Dest: IPv4(192, 168, 0, 0), PrefixLen: 16}, Route{Dest: IPv4(192, 168, 5, 0), PrefixLen: 24}, true},
	}
	for i, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: %v", i, got)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("case %d (sym): %v", i, got)
		}
	}
}

// Property: Overlaps is symmetric, and a route always overlaps itself.
func TestRouteOverlapProperty(t *testing.T) {
	f := func(a, b uint32, pa, pb uint8) bool {
		ra := Route{Dest: IP(a), PrefixLen: int(pa % 33)}
		rb := Route{Dest: IP(b), PrefixLen: int(pb % 33)}
		if ra.Overlaps(rb) != rb.Overlaps(ra) {
			return false
		}
		return ra.Overlaps(ra)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteConflicts(t *testing.T) {
	s := testStack()
	// The builder installs 127/8 and 10.0.0/24.
	if !s.RouteConflicts(Route{Dest: IPv4(10, 0, 0, 0), PrefixLen: 25}) {
		t.Fatal("overlapping route should conflict")
	}
	if s.RouteConflicts(Route{Dest: IPv4(192, 168, 9, 0), PrefixLen: 24}) {
		t.Fatal("disjoint route should not conflict")
	}
}

func TestAddDelRoute(t *testing.T) {
	s := testStack()
	before := len(s.Routes())
	s.AddRoute(Route{Dest: IPv4(192, 168, 9, 0), PrefixLen: 24, Iface: "ppp0"})
	if len(s.Routes()) != before+1 {
		t.Fatal("route not added")
	}
	if !s.DelRoute(IPv4(192, 168, 9, 0), 24) {
		t.Fatal("route not deleted")
	}
	if s.DelRoute(IPv4(192, 168, 9, 0), 24) {
		t.Fatal("double delete should fail")
	}
}

func TestSocketLifecycle(t *testing.T) {
	s := testStack()
	sock, err := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(sock, 8080); err != nil {
		t.Fatal(err)
	}
	if owner := s.PortOwner(IPPROTO_TCP, 8080); owner != sock {
		t.Fatal("port owner mismatch")
	}
	if err := s.Close(sock); err != nil {
		t.Fatal(err)
	}
	if s.PortOwner(IPPROTO_TCP, 8080) != nil {
		t.Fatal("port not released on close")
	}
	if err := s.Close(sock); err != errno.EBADF {
		t.Fatalf("double close: %v", err)
	}
	if sock.recvQ != nil {
		t.Fatal("a socket that never received made a receive queue")
	}
}

func TestBindConflicts(t *testing.T) {
	s := testStack()
	a, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	b, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	u, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	if err := s.Bind(a, 80); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(b, 80); err != errno.EADDRINUSE {
		t.Fatalf("tcp conflict: %v", err)
	}
	// UDP 80 is a different namespace.
	if err := s.Bind(u, 80); err != nil {
		t.Fatalf("udp bind: %v", err)
	}
	if err := s.Bind(a, 70000); err == nil {
		// a is already bound; but first the port must validate
		t.Fatal("port out of range accepted")
	}
}

func TestEphemeralBind(t *testing.T) {
	s := testStack()
	sock, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	if err := s.Bind(sock, 0); err != nil {
		t.Fatal(err)
	}
	if sock.LocalPort < 32768 {
		t.Fatalf("ephemeral port = %d", sock.LocalPort)
	}
}

func TestTCPConnectAcceptSendRecv(t *testing.T) {
	s := testStack()
	server, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Bind(server, 9000); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(server, 4); err != nil {
		t.Fatal(err)
	}
	client, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Connect(client, s.HostIP(), 9000); err != nil {
		t.Fatal(err)
	}
	conn, err := s.Accept(server, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(client, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := s.Recv(conn, time.Second)
	if err != nil || string(data) != "hello" {
		t.Fatalf("recv: %q %v", data, err)
	}
	if _, err := s.Send(conn, []byte("world")); err != nil {
		t.Fatal(err)
	}
	data, err = s.Recv(client, time.Second)
	if err != nil || string(data) != "world" {
		t.Fatalf("reply: %q %v", data, err)
	}
}

// TestPeerCloseEndsStream closes the client end of a connection: the
// server end reads what the client sent, then the end of the stream (zero
// bytes, no error, long before its 5 s timeout, which would be EAGAIN),
// and its sends fail with EPIPE.
func TestPeerCloseEndsStream(t *testing.T) {
	s := testStack()
	server, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Bind(server, 9000); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(server, 4); err != nil {
		t.Fatal(err)
	}
	client, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Connect(client, s.HostIP(), 9000); err != nil {
		t.Fatal(err)
	}
	conn, err := s.Accept(server, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"last", "words"} {
		if _, err := s.Send(client, []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(client); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"last", "words", "", ""} {
		data, err := s.Recv(conn, 5*time.Second)
		if err != nil || string(data) != want {
			t.Fatalf("Recv after peer close = %q, %v; want %q, nil", data, err, want)
		}
	}
	if n, err := s.Send(conn, []byte("x")); n != 0 || err != errno.EPIPE {
		t.Fatalf("Send after peer close = %d, %v; want 0, EPIPE", n, err)
	}
	if err := s.Close(conn); err != nil {
		t.Fatal(err)
	}
}

func TestConnectRefused(t *testing.T) {
	s := testStack()
	client, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Connect(client, s.HostIP(), 9999); err != errno.ECONNREFUSED {
		t.Fatalf("connect to closed port: %v", err)
	}
}

func TestConnectUnreachable(t *testing.T) {
	s := testStack()
	client, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Connect(client, IPv4(203, 0, 113, 7), 80); err != errno.ENETUNREACH {
		t.Fatalf("connect off-net: %v", err)
	}
}

func TestConnectTwiceEISCONN(t *testing.T) {
	s := testStack()
	server, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	_ = s.Bind(server, 9000)
	_ = s.Listen(server, 4)
	client, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Connect(client, s.HostIP(), 9000); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(client, s.HostIP(), 9000); err != errno.EISCONN {
		t.Fatalf("double connect: %v", err)
	}
}

// TestConnectFullBacklogLeavesSocketUnconnected: a connect refused for a
// full backlog makes no connection. The socket sends as one that never
// connected, holds no port, and connects on a retry once the listener has
// accepted the first connection.
func TestConnectFullBacklogLeavesSocketUnconnected(t *testing.T) {
	s := testStack()
	server, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	_ = s.Bind(server, 9000)
	_ = s.Listen(server, 1)
	first, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	second, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	never, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Connect(first, s.HostIP(), 9000); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(second, s.HostIP(), 9000); err != errno.ECONNREFUSED {
		t.Fatalf("connect past a full backlog: %v, want ECONNREFUSED", err)
	}
	wantN, wantErr := s.Send(never, []byte("x"))
	if n, err := s.Send(second, []byte("x")); n != wantN || err != wantErr {
		t.Fatalf("Send on the refused socket = %d, %v; want %d, %v", n, err, wantN, wantErr)
	}
	if second.LocalPort != 0 || second.RemotePort != 0 {
		t.Fatalf("refused socket keeps ports local %d remote %d", second.LocalPort, second.RemotePort)
	}
	if _, err := s.Accept(server, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(second, s.HostIP(), 9000); err != nil {
		t.Fatalf("retry after accept: %v", err)
	}
	if conn, err := s.Accept(server, time.Second); err != nil || conn.peer != second {
		t.Fatalf("Accept after the retry: %v", err)
	}
}

func TestUDPDelivery(t *testing.T) {
	s := testStack()
	server, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	if err := s.Bind(server, 5353); err != nil {
		t.Fatal(err)
	}
	client, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	pkt := &Packet{Dst: s.HostIP(), DstPort: 5353, Payload: []byte("query")}
	if err := s.SendTo(client, pkt); err != nil {
		t.Fatal(err)
	}
	got, err := s.RecvFrom(server, time.Second)
	if err != nil || string(got.Payload) != "query" {
		t.Fatalf("udp recv: %v %v", got, err)
	}
	if got.SrcPort != client.LocalPort {
		t.Fatalf("src port not stamped: %+v", got)
	}
}

func TestICMPEcho(t *testing.T) {
	s := testStack()
	sock, _ := s.NewSocket(AF_INET, SOCK_RAW, IPPROTO_ICMP)
	pkt := &Packet{Dst: s.HostIP(), Proto: IPPROTO_ICMP, ICMPType: ICMPEchoRequest, Payload: []byte("ping")}
	if err := s.SendTo(sock, pkt); err != nil {
		t.Fatal(err)
	}
	reply, err := s.RecvFrom(sock, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.ICMPType != ICMPEchoReply || string(reply.Payload) != "ping" {
		t.Fatalf("reply: %+v", reply)
	}
	if reply.Src != s.HostIP() {
		t.Fatalf("reply src: %v", reply.Src)
	}
}

func TestSpoofingDetection(t *testing.T) {
	s := testStack()
	victim, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	victim.OwnerUID = 1000
	if err := s.Bind(victim, 8080); err != nil {
		t.Fatal(err)
	}
	attacker, _ := s.NewSocket(AF_INET, SOCK_RAW, IPPROTO_RAW)
	attacker.OwnerUID = 1001
	pkt := &Packet{Dst: s.HostIP(), Proto: IPPROTO_TCP, SrcPort: 8080, DstPort: 9999}
	_ = s.SendTo(attacker, pkt)
	if !pkt.SpoofedSource {
		t.Fatal("spoofing not detected")
	}
	// The owner itself is not "spoofing".
	own, _ := s.NewSocket(AF_INET, SOCK_RAW, IPPROTO_RAW)
	own.OwnerUID = 1000
	pkt2 := &Packet{Dst: s.HostIP(), Proto: IPPROTO_TCP, SrcPort: 8080, DstPort: 9999}
	_ = s.SendTo(own, pkt2)
	if pkt2.SpoofedSource {
		t.Fatal("same-uid packet flagged as spoofed")
	}
}

type dropAll struct{}

func (dropAll) Output(*Packet) Verdict { return Drop }

func TestOutputFilterDrops(t *testing.T) {
	s := testStack()
	s.SetFilter(dropAll{})
	sock, _ := s.NewSocket(AF_INET, SOCK_RAW, IPPROTO_ICMP)
	pkt := &Packet{Dst: s.HostIP(), Proto: IPPROTO_ICMP, ICMPType: ICMPEchoRequest}
	if err := s.SendTo(sock, pkt); err != errno.EPERM {
		t.Fatalf("filtered send: %v", err)
	}
	if s.DroppedPackets() != 1 {
		t.Fatalf("dropped = %d", s.DroppedPackets())
	}
}

func TestLinkedStacks(t *testing.T) {
	a := NewStack(IPv4(10, 0, 0, 2))
	b := NewStack(IPv4(10, 0, 1, 2))
	Link(a, b)
	// a needs a route toward b's network.
	a.AddRoute(Route{Dest: IPv4(10, 0, 1, 0), PrefixLen: 24, Iface: "ppp0"})
	server, _ := b.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := b.Bind(server, 80); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(server, 4); err != nil {
		t.Fatal(err)
	}
	client, _ := a.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := a.Connect(client, b.HostIP(), 80); err != nil {
		t.Fatalf("cross-stack connect: %v", err)
	}
	if _, err := b.Accept(server, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestIfaces(t *testing.T) {
	s := testStack()
	if s.Iface("lo") == nil || s.Iface("eth0") == nil {
		t.Fatal("default ifaces missing")
	}
	s.AddIface(&Iface{Name: "ppp0", Modem: true})
	iface := s.Iface("ppp0")
	if iface == nil || !iface.Modem || iface.Params == nil {
		t.Fatalf("ppp0: %+v", iface)
	}
	if len(s.Ifaces()) != 3 {
		t.Fatalf("ifaces = %d", len(s.Ifaces()))
	}
}

func TestRecvTimeout(t *testing.T) {
	s := testStack()
	sock, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	_ = s.Bind(sock, 7000)
	if sock.recvQ != nil {
		t.Fatal("receive queue made before first use")
	}
	start := time.Now()
	if _, err := s.RecvFrom(sock, 10*time.Millisecond); err != errno.EAGAIN {
		t.Fatalf("timeout: %v", err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("timeout too long")
	}
}

func TestInvalidSocketParams(t *testing.T) {
	s := testStack()
	if _, err := s.NewSocket(99, SOCK_STREAM, 0); err != errno.EINVAL {
		t.Fatalf("bad family: %v", err)
	}
	if _, err := s.NewSocket(AF_INET, 99, 0); err != errno.EINVAL {
		t.Fatalf("bad type: %v", err)
	}
	dgram, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	if err := s.Listen(dgram, 4); err != errno.EINVAL {
		t.Fatalf("listen on dgram: %v", err)
	}
	if err := s.Connect(dgram, s.HostIP(), 80); err != errno.EINVAL {
		t.Fatalf("connect dgram: %v", err)
	}
}

// fixedFilter is a test OutputFilter with a fixed verdict.
type fixedFilter struct {
	verdict Verdict
}

func (f *fixedFilter) Output(*Packet) Verdict { return f.verdict }

// TestSetFilterDuringSends checks the documented SetFilter semantics:
// installing a filter while sends are in flight is safe, every packet
// sees exactly one coherent filter, and the sent/dropped counters
// account for every send attempt.
func TestSetFilterDuringSends(t *testing.T) {
	s := NewStack(IPv4(10, 0, 0, 1))
	const senders = 4
	const perSender = 500

	done := make(chan struct{})
	go func() {
		defer close(done)
		accept := &fixedFilter{verdict: Accept}
		drop := &fixedFilter{verdict: Drop}
		for i := 0; i < 2000; i++ {
			if i%2 == 0 {
				s.SetFilter(drop)
			} else {
				s.SetFilter(accept)
			}
		}
		s.SetFilter(nil)
	}()

	var wg sync.WaitGroup
	var denied atomic.Uint64
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sock, err := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
			if err != nil {
				t.Errorf("socket: %v", err)
				return
			}
			defer s.Close(sock)
			for i := 0; i < perSender; i++ {
				pkt := &Packet{Dst: IPv4(10, 0, 0, 1), DstPort: 9}
				switch err := s.SendTo(sock, pkt); err {
				case nil:
				case errno.EPERM: // dropped by the filter of the moment
					denied.Add(1)
				default:
					t.Errorf("sendto: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	total := s.SentPackets() + s.DroppedPackets()
	if total != senders*perSender {
		t.Fatalf("sent %d + dropped %d = %d, want %d",
			s.SentPackets(), s.DroppedPackets(), total, senders*perSender)
	}
	if s.DroppedPackets() != denied.Load() {
		t.Fatalf("dropped counter %d, but %d sends returned EPERM",
			s.DroppedPackets(), denied.Load())
	}
}

// heapInuseAfterGC returns the live heap after a full collection.
func heapInuseAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestPromptStreamOpsFreeTheirTimers: a Send, Accept or Recv that
// completes at once must not leave its timeout's timer live. A timer from
// time.After stays in the runtime's timer heap until it fires, about 200
// bytes each, so a long timeout makes the live heap grow with throughput.
func TestPromptStreamOpsFreeTheirTimers(t *testing.T) {
	s := testStack()
	server, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
	if err := s.Bind(server, 9000); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(server, 4); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	round := func() {
		client, _ := s.NewSocket(AF_INET, SOCK_STREAM, IPPROTO_TCP)
		if err := s.Connect(client, s.HostIP(), 9000); err != nil {
			t.Fatal(err)
		}
		conn, err := s.Accept(server, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := s.Send(client, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Recv(conn, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		s.Close(client)
		s.Close(conn)
	}
	round() // warm up
	before := heapInuseAfterGC()
	for i := 0; i < n/4; i++ {
		round()
	}
	grew := int64(heapInuseAfterGC()) - int64(before)
	// n prompt ops leaking a timer each would grow the heap by several MB.
	if grew > n*32 {
		t.Fatalf("live heap grew %d bytes over %d prompt stream ops (%.0f B/op): timers outlive their ops",
			grew, n, float64(grew)/n)
	}
}

// TestCloneStartsWithEmptyQueues checks that a cloned socket carries
// nothing its original had queued, and that the original keeps it.
func TestCloneStartsWithEmptyQueues(t *testing.T) {
	s := testStack()
	server, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	if err := s.Bind(server, 5353); err != nil {
		t.Fatal(err)
	}
	client, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	if err := s.SendTo(client, &Packet{Dst: s.HostIP(), DstPort: 5353, Payload: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	cs := c.PortOwner(IPPROTO_UDP, 5353)
	if cs == nil || cs == server {
		t.Fatalf("clone's port owner = %p, want a copy of %p", cs, server)
	}
	if _, err := c.RecvFrom(cs, 10*time.Millisecond); err != errno.EAGAIN {
		t.Fatalf("clone's socket: %v, want EAGAIN", err)
	}
	if got, err := s.RecvFrom(server, time.Second); err != nil || string(got.Payload) != "q" {
		t.Fatalf("original's socket: %v %v", got, err)
	}
}

// TestFirstUseQueueConcurrentDelivery delivers UDP from two goroutines to
// a socket that has no receive queue yet while a third receives: whoever
// comes first makes the one queue, and nothing below its depth is lost.
func TestFirstUseQueueConcurrentDelivery(t *testing.T) {
	const perSender = recvQueueDepth / 4
	s := testStack()
	server, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
	if err := s.Bind(server, 5353); err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	go func() {
		n := 0
		for n < 2*perSender {
			if _, err := s.RecvFrom(server, time.Second); err != nil {
				break
			}
			n++
		}
		got <- n
	}()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		client, _ := s.NewSocket(AF_INET, SOCK_DGRAM, IPPROTO_UDP)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				if err := s.SendTo(client, &Packet{Dst: s.HostIP(), DstPort: 5353}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := <-got; n != 2*perSender {
		t.Fatalf("received %d datagrams, want %d", n, 2*perSender)
	}
}
