package netstack

import (
	"sort"
	"time"

	"protego/internal/errno"
	"protego/internal/faultinject"
)

// recvQueueDepth bounds per-socket receive queues; overflowing packets are
// dropped like a full sk_buff backlog.
const recvQueueDepth = 512

// NewSocket allocates a socket on the stack. Privilege checks (CAP_NET_RAW
// for raw sockets) belong to the kernel layer, not here.
func (s *Stack) NewSocket(family, typ, proto int) (*Socket, error) {
	if family != AF_INET && family != AF_PACKET {
		return nil, errno.EINVAL
	}
	if typ != SOCK_STREAM && typ != SOCK_DGRAM && typ != SOCK_RAW {
		return nil, errno.EINVAL
	}
	sock := &Socket{
		Family: family,
		Type:   typ,
		Proto:  proto,
		stack:  s,
		recvQ:  make(chan *Packet, recvQueueDepth),
	}
	s.mu.Lock()
	s.nextSock++
	sock.ID = s.nextSock
	s.sockets[sock.ID] = sock
	s.mu.Unlock()
	return sock, nil
}

// IsRaw reports whether the socket is a raw or packet socket.
func (sock *Socket) IsRaw() bool {
	return sock.Type == SOCK_RAW || sock.Family == AF_PACKET
}

// Stack returns the stack the socket was created on (its network
// namespace).
func (sock *Socket) Stack() *Stack { return sock.stack }

// Bind attaches the socket to a local port. EADDRINUSE if the (proto, port)
// pair is taken. Port ownership is recorded for spoofing detection.
func (s *Stack) Bind(sock *Socket, port int) error {
	if port < 0 || port > 65535 {
		return errno.EINVAL
	}
	proto := sock.effectiveProto()
	s.mu.Lock()
	defer s.mu.Unlock()
	if port == 0 {
		port = s.ephemeralPortLocked(proto)
		if port == 0 {
			return errno.EADDRINUSE
		}
	}
	key := portKey{proto: proto, port: port}
	if _, taken := s.ports[key]; taken {
		return errno.EADDRINUSE
	}
	s.ports[key] = sock
	sock.LocalIP = s.hostIP
	sock.LocalPort = port
	return nil
}

// effectiveProto maps the socket type to the transport protocol used for
// port bookkeeping.
func (sock *Socket) effectiveProto() int {
	switch {
	case sock.Proto != 0 && sock.Proto != IPPROTO_IP:
		return sock.Proto
	case sock.Type == SOCK_STREAM:
		return IPPROTO_TCP
	case sock.Type == SOCK_DGRAM:
		return IPPROTO_UDP
	default:
		return IPPROTO_RAW
	}
}

func (s *Stack) ephemeralPortLocked(proto int) int {
	for p := 32768; p < 61000; p++ {
		if _, taken := s.ports[portKey{proto: proto, port: p}]; !taken {
			return p
		}
	}
	return 0
}

// PortOwner returns the socket bound to (proto, port), or nil.
func (s *Stack) PortOwner(proto, port int) *Socket {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ports[portKey{proto: proto, port: port}]
}

// BoundPort is one row of the stack's port-binding table.
type BoundPort struct {
	Proto    int
	Port     int
	OwnerUID int
}

// BoundPorts returns a snapshot of every (proto, port) reservation with the
// owning socket's uid, sorted by proto then port — the canonical form the
// state-fingerprint serializers compare across machine images.
func (s *Stack) BoundPorts() []BoundPort {
	s.mu.RLock()
	out := make([]BoundPort, 0, len(s.ports))
	for key, sock := range s.ports {
		out = append(out, BoundPort{Proto: key.proto, Port: key.port, OwnerUID: sock.OwnerUID})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proto != out[j].Proto {
			return out[i].Proto < out[j].Proto
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// Listen marks a stream socket as accepting connections.
func (s *Stack) Listen(sock *Socket, backlog int) error {
	if sock.Type != SOCK_STREAM {
		return errno.EINVAL
	}
	if sock.LocalPort == 0 {
		return errno.EINVAL
	}
	sock.mu.Lock()
	defer sock.mu.Unlock()
	if backlog <= 0 {
		backlog = 16
	}
	sock.acceptQ = make(chan *Socket, backlog)
	sock.listening = true
	return nil
}

// listenQueue returns the accept queue if the socket is listening.
func (sock *Socket) listenQueue() (chan *Socket, bool) {
	sock.mu.Lock()
	defer sock.mu.Unlock()
	return sock.acceptQ, sock.listening
}

// Connect establishes a stream connection to (dst, port). The handshake is
// synchronous: a peer socket is created and queued on the listener.
func (s *Stack) Connect(sock *Socket, dst IP, port int) error {
	if sock.Type != SOCK_STREAM {
		return errno.EINVAL
	}
	if err := s.faultInjector().Check(faultinject.SiteNetConnect); err != nil {
		return err
	}
	sock.mu.Lock()
	if sock.connected {
		sock.mu.Unlock()
		return errno.EISCONN
	}
	sock.mu.Unlock()

	target, err := s.resolveTarget(dst)
	if err != nil {
		return err
	}
	listener := target.PortOwner(IPPROTO_TCP, port)
	if listener == nil {
		return errno.ECONNREFUSED
	}
	acceptQ, listening := listener.listenQueue()
	if !listening {
		return errno.ECONNREFUSED
	}
	// Auto-bind an ephemeral local port.
	if sock.LocalPort == 0 {
		if err := s.Bind(sock, 0); err != nil {
			return err
		}
	}
	server := &Socket{
		Family:     AF_INET,
		Type:       SOCK_STREAM,
		Proto:      IPPROTO_TCP,
		stack:      target,
		recvQ:      make(chan *Packet, recvQueueDepth),
		LocalIP:    listener.LocalIP,
		LocalPort:  listener.LocalPort,
		RemoteIP:   sock.LocalIP,
		RemotePort: sock.LocalPort,
		OwnerUID:   listener.OwnerUID,
		connected:  true,
	}
	server.peer = sock
	sock.mu.Lock()
	sock.peer = server
	sock.connected = true
	sock.RemoteIP = dst
	sock.RemotePort = port
	sock.mu.Unlock()
	select {
	case acceptQ <- server:
		return nil
	default:
		return errno.ECONNREFUSED // backlog full
	}
}

// resolveTarget returns the stack owning dst (this one, or the linked peer).
func (s *Stack) resolveTarget(dst IP) (*Stack, error) {
	if s.isLocal(dst) {
		return s, nil
	}
	s.mu.RLock()
	route := s.lookupRoute(dst)
	linked := s.linked
	s.mu.RUnlock()
	if route == nil {
		return nil, errno.ENETUNREACH
	}
	if linked != nil && linked.isLocal(dst) {
		return linked, nil
	}
	if linked != nil {
		return linked, nil // forward via point-to-point gateway
	}
	return nil, errno.EHOSTUNREACH
}

// Accept dequeues a pending connection from a listening socket.
func (s *Stack) Accept(sock *Socket, timeout time.Duration) (*Socket, error) {
	acceptQ, listening := sock.listenQueue()
	if !listening {
		return nil, errno.EINVAL
	}
	select {
	case conn := <-acceptQ:
		return conn, nil
	case <-time.After(timeout):
		return nil, errno.EAGAIN
	}
}

// Send transmits stream data to the connected peer.
func (s *Stack) Send(sock *Socket, data []byte) (int, error) {
	sock.mu.Lock()
	peer := sock.peer
	connected := sock.connected
	sock.mu.Unlock()
	if !connected || peer == nil {
		return 0, errno.ENOTCONN
	}
	act, ferr := s.faultInjector().CheckSend(faultinject.SiteNetSend)
	if ferr != nil {
		return 0, ferr
	}
	pkt := &Packet{
		Src: sock.LocalIP, Dst: sock.RemoteIP,
		Proto: IPPROTO_TCP, SrcPort: sock.LocalPort, DstPort: sock.RemotePort,
		Payload: append([]byte(nil), data...),
	}
	s.sentPackets.Add(1)
	if act == faultinject.ActDrop {
		// Lost on the wire: the send succeeds, nothing arrives.
		return len(data), nil
	}
	copies := 1
	if act == faultinject.ActDup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		select {
		case peer.recvQ <- pkt:
		case <-time.After(time.Second):
			return 0, errno.ETIMEDOUT
		}
	}
	return len(data), nil
}

// Recv reads stream data from the socket, blocking up to timeout.
func (s *Stack) Recv(sock *Socket, timeout time.Duration) ([]byte, error) {
	select {
	case pkt, ok := <-sock.recvQ:
		if !ok {
			return nil, errno.ECONNRESET
		}
		return pkt.Payload, nil
	case <-time.After(timeout):
		return nil, errno.EAGAIN
	}
}

// SendTo transmits a datagram (UDP) or a raw packet. Raw packets pass
// through the output filter; this is the path the Protego netfilter
// extension mediates. Spoofing detection fills pkt.SpoofedSource when a raw
// packet claims a TCP/UDP source endpoint bound by a different owner.
func (s *Stack) SendTo(sock *Socket, pkt *Packet) error {
	pkt.Src = s.hostIP
	pkt.SenderUID = sock.OwnerUID
	if sock.IsRaw() {
		pkt.FromRaw = true
		pkt.UnprivRaw = sock.UnprivRaw
		s.detectSpoofing(sock, pkt)
	} else {
		pkt.Proto = sock.effectiveProto()
		if sock.LocalPort == 0 {
			if err := s.Bind(sock, 0); err != nil {
				return err
			}
		}
		pkt.SrcPort = sock.LocalPort
	}

	// One atomic load per packet: see SetFilter for the swap semantics.
	if filter := s.currentFilter(); filter != nil && filter.Output(pkt) == Drop {
		s.droppedPackets.Add(1)
		return errno.EPERM
	}

	// Fault injection sits after the filter verdict: policy drops stay
	// policy drops (EPERM), injected ones model loss on the wire.
	act, ferr := s.faultInjector().CheckSend(faultinject.SiteNetSendTo)
	if ferr != nil {
		return ferr
	}
	s.sentPackets.Add(1)
	if act == faultinject.ActDrop {
		return nil // sent but never delivered
	}

	target, err := s.resolveTarget(pkt.Dst)
	if err != nil {
		return err
	}
	target.deliver(pkt, sock)
	if act == faultinject.ActDup {
		target.deliver(pkt, sock)
	}
	return nil
}

// detectSpoofing marks raw packets that forge another socket's endpoint.
func (s *Stack) detectSpoofing(sock *Socket, pkt *Packet) {
	if pkt.Proto != IPPROTO_TCP && pkt.Proto != IPPROTO_UDP {
		return
	}
	owner := s.PortOwner(pkt.Proto, pkt.SrcPort)
	if owner != nil && owner.ID != sock.ID && owner.OwnerUID != sock.OwnerUID {
		pkt.SpoofedSource = true
	}
}

// deliver routes an inbound packet to the right local socket. ICMP echo
// requests addressed to the host generate a reply sent back to the origin's
// raw ICMP sockets.
func (s *Stack) deliver(pkt *Packet, origin *Socket) {
	switch pkt.Proto {
	case IPPROTO_ICMP:
		if pkt.ICMPType == ICMPEchoRequest && s.isLocal(pkt.Dst) {
			reply := &Packet{
				Src: pkt.Dst, Dst: pkt.Src,
				Proto: IPPROTO_ICMP, ICMPType: ICMPEchoReply,
				Payload: pkt.Payload,
			}
			if origin != nil {
				select {
				case origin.recvQ <- reply:
				default:
				}
			}
			return
		}
		// TTL exceeded etc. delivered to raw sockets below.
		if origin != nil {
			select {
			case origin.recvQ <- pkt:
			default:
			}
		}
	case IPPROTO_UDP:
		if target := s.PortOwner(IPPROTO_UDP, pkt.DstPort); target != nil {
			select {
			case target.recvQ <- pkt:
			default:
			}
		}
	case IPPROTO_TCP:
		if target := s.PortOwner(IPPROTO_TCP, pkt.DstPort); target != nil {
			select {
			case target.recvQ <- pkt:
			default:
			}
		}
	default:
		// Unknown protocol: deliver to the origin socket if local (a
		// raw-protocol loopback), else drop.
		if origin != nil && s.isLocal(pkt.Dst) {
			select {
			case origin.recvQ <- pkt:
			default:
			}
		}
	}
}

// RecvFrom reads a datagram, blocking up to timeout.
func (s *Stack) RecvFrom(sock *Socket, timeout time.Duration) (*Packet, error) {
	// A stopped timer is freed at once; time.After's would stay in the
	// timer heap for the whole timeout after every prompt reply.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case pkt, ok := <-sock.recvQ:
		if !ok {
			return nil, errno.ECONNRESET
		}
		return pkt, nil
	case <-timer.C:
		return nil, errno.EAGAIN
	}
}

// Close releases the socket and its port reservation.
func (s *Stack) Close(sock *Socket) error {
	sock.mu.Lock()
	if sock.closed {
		sock.mu.Unlock()
		return errno.EBADF
	}
	sock.closed = true
	sock.mu.Unlock()
	s.mu.Lock()
	if sock.LocalPort != 0 {
		key := portKey{proto: sock.effectiveProto(), port: sock.LocalPort}
		if s.ports[key] == sock {
			delete(s.ports, key)
		}
	}
	delete(s.sockets, sock.ID)
	s.mu.Unlock()
	return nil
}
