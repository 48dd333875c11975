// Package netstack implements the simulated network substrate: interfaces,
// a routing table with conflict detection (the object-based policy pppd
// needs), TCP/UDP/raw/packet sockets with port ownership, ICMP echo, and a
// netfilter-style output hook. The Protego raw-socket policy (§4.1.1) and
// privileged-port policy (§4.1.3) are enforced against this stack.
package netstack

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"protego/internal/errno"
	"protego/internal/faultinject"
)

// Address families and socket types, mirroring the Linux constants used by
// the utilities in the study.
const (
	AF_UNIX   = 1
	AF_INET   = 2
	AF_PACKET = 17

	SOCK_STREAM = 1
	SOCK_DGRAM  = 2
	SOCK_RAW    = 3

	IPPROTO_IP   = 0
	IPPROTO_ICMP = 1
	IPPROTO_TCP  = 6
	IPPROTO_UDP  = 17
	IPPROTO_RAW  = 255
)

// ICMP message types used by ping and traceroute.
const (
	ICMPEchoReply    = 0
	ICMPEchoRequest  = 8
	ICMPTimeExceeded = 11
)

// IP is an IPv4 address in host byte order.
type IP uint32

// IPv4 builds an IP from dotted-quad components.
func IPv4(a, b, c, d byte) IP {
	return IP(a)<<24 | IP(b)<<16 | IP(c)<<8 | IP(d)
}

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) {
	var a, b, c, d int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return 0, errno.EINVAL
	}
	for _, v := range []int{a, b, c, d} {
		if v < 0 || v > 255 {
			return 0, errno.EINVAL
		}
	}
	return IPv4(byte(a), byte(b), byte(c), byte(d)), nil
}

// Packet is a network datagram traversing the stack.
type Packet struct {
	Src, Dst IP
	Proto    int // IPPROTO_*
	SrcPort  int
	DstPort  int
	ICMPType int
	TTL      int
	Payload  []byte

	// Metadata consumed by the output filter (netfilter). FromRaw marks
	// packets written through a raw or packet socket; UnprivRaw marks
	// those from sockets created *without* CAP_NET_RAW under the Protego
	// relaxation; SpoofedSource marks raw packets whose claimed TCP/UDP
	// source endpoint belongs to a socket owned by someone else.
	FromRaw       bool
	UnprivRaw     bool
	SenderUID     int
	SpoofedSource bool
}

// Verdict is the outcome of the output filter.
type Verdict int

// Filter verdicts.
const (
	Accept Verdict = iota
	Drop
)

// OutputFilter is the netfilter hook on the IP output path. A nil filter
// accepts everything.
type OutputFilter interface {
	Output(pkt *Packet) Verdict
}

// Iface is a network interface. Modem interfaces model the PPP hardware
// pppd configures through privileged ioctls.
type Iface struct {
	Name  string
	Addr  IP
	Up    bool
	Modem bool
	InUse bool // a modem in use may not be reconfigured by another user
	Owner int  // uid using the modem
	// Session parameters configurable by unprivileged users under the
	// Protego ppp policy ("safe options": compression etc.).
	Params map[string]string
}

// Route is a routing table entry. PrefixLen expresses the netmask.
type Route struct {
	Dest      IP
	PrefixLen int
	Gateway   IP
	Iface     string
	Metric    int
	CreatedBy int // uid that installed the route
}

// mask returns the netmask implied by PrefixLen.
func (r Route) mask() IP {
	if r.PrefixLen <= 0 {
		return 0
	}
	if r.PrefixLen >= 32 {
		return ^IP(0)
	}
	return ^IP(0) << (32 - r.PrefixLen)
}

// Matches reports whether ip falls inside the route's destination prefix.
func (r Route) Matches(ip IP) bool {
	return ip&r.mask() == r.Dest&r.mask()
}

// Overlaps reports whether two routes' destination prefixes intersect —
// the conflict check Protego performs before letting an unprivileged pppd
// add a route (§4.1.2).
func (r Route) Overlaps(o Route) bool {
	short := r
	long := o
	if o.PrefixLen < r.PrefixLen {
		short, long = o, r
	}
	return long.Dest&short.mask() == short.Dest&short.mask()
}

// String renders the route like the output of `ip route`.
func (r Route) String() string {
	return fmt.Sprintf("%s/%d via %s dev %s metric %d", r.Dest, r.PrefixLen, r.Gateway, r.Iface, r.Metric)
}

type portKey struct {
	proto int
	port  int
}

// Socket is a communication endpoint.
type Socket struct {
	ID     int
	Family int
	Type   int
	Proto  int

	LocalIP    IP
	LocalPort  int
	RemoteIP   IP
	RemotePort int

	// Owner identity for object-based policies ((binary, uid) pairs).
	OwnerUID    int
	OwnerBinary string

	// UnprivRaw marks a raw/packet socket created without CAP_NET_RAW;
	// the Protego netfilter extension subjects its traffic to filtering.
	UnprivRaw bool

	stack     *Stack
	recvOnce  sync.Once // makes recvQ on first use (see queue)
	recvQ     chan *Packet
	acceptQ   chan *Socket
	peer      *Socket
	hup       chan struct{} // closed when the connected peer closes its end
	listening bool
	connected bool
	closed    bool
	mu        sync.Mutex
}

// filterBox wraps the installed OutputFilter so it can be published as a
// single atomic pointer (an interface value cannot be stored atomically
// on its own).
type filterBox struct{ f OutputFilter }

// Stack is a host network stack. Loopback delivery connects sockets on the
// same stack; two stacks can be bridged with Link to model a two-machine
// PPP setup.
//
// Concurrency: mu is a reader/writer lock — the read-mostly paths
// (interface and route lookups, port-owner resolution, route lookup on
// every send) take only read locks, so concurrent senders never
// serialize against each other; mutations (bind, close, iface/route
// changes) take the write lock. The output filter is an atomic snapshot
// (see SetFilter) and the packet counters are atomics, so the send fast
// path acquires mu only in read mode.
type Stack struct {
	mu       sync.RWMutex
	hostIP   IP
	ifaces   map[string]*Iface
	routes   []Route
	ports    map[portKey]*Socket // made on first bind
	sockets  map[int]*Socket     // made on first socket
	nextSock int
	linked   *Stack // simple point-to-point peer (PPP tests)
	// gen is the generation of the port, route and interface tables (see
	// Generation). A mutator moves it under mu, once its change is made.
	gen atomic.Uint64

	filter atomic.Pointer[filterBox]

	// faults is the optional fault-injection layer (nil normally); an
	// atomic snapshot like the output filter, loaded once per operation.
	faults atomic.Pointer[faultinject.Injector]

	// Stats observable by tests and benchmarks via SentPackets and
	// DroppedPackets; atomics so the send path never write-locks.
	sentPackets    atomic.Uint64
	droppedPackets atomic.Uint64
}

// NewStack creates a stack with a loopback interface and an eth0 interface
// carrying hostIP.
func NewStack(hostIP IP) *Stack {
	s := &Stack{
		hostIP: hostIP,
		ifaces: make(map[string]*Iface),
	}
	s.ifaces["lo"] = &Iface{Name: "lo", Addr: IPv4(127, 0, 0, 1), Up: true, Params: map[string]string{}}
	s.ifaces["eth0"] = &Iface{Name: "eth0", Addr: hostIP, Up: true, Params: map[string]string{}}
	s.routes = []Route{
		{Dest: IPv4(127, 0, 0, 0), PrefixLen: 8, Iface: "lo"},
		{Dest: hostIP & IP(0xFFFFFF00), PrefixLen: 24, Iface: "eth0"},
	}
	return s
}

// HostIP returns the stack's primary address.
func (s *Stack) HostIP() IP { return s.hostIP }

// Generation returns a counter that only grows, and that every change to
// the bound ports, the routes or an interface's state moves. Lookups and
// sends never move it. A caller that reads it before reading that state
// may keep what it derived for as long as the generation reads the same.
func (s *Stack) Generation() uint64 { return s.gen.Load() }

// movedLocked records a change Generation covers. The caller holds mu
// and has made the change.
func (s *Stack) movedLocked() { s.gen.Add(1) }

// SetFilter installs the output packet filter (netfilter hook).
//
// Installation is safe while sends are in flight: the filter is
// published with a single atomic store, and each SendTo loads the
// snapshot exactly once per packet. A packet that loaded the old filter
// before the swap completes its verdict under the old filter; every
// packet sent after SetFilter returns is guaranteed to see the new one.
// There are no torn reads and no locks on this path, mirroring how
// Linux swaps netfilter rulesets via RCU.
func (s *Stack) SetFilter(f OutputFilter) {
	s.filter.Store(&filterBox{f: f})
}

// currentFilter returns the installed output filter, or nil.
func (s *Stack) currentFilter() OutputFilter {
	if box := s.filter.Load(); box != nil {
		return box.f
	}
	return nil
}

// SetFaultInjector installs (or removes, with nil) the fault-injection
// layer for the stack's send paths. Normally called through
// kernel.SetFaultInjector.
func (s *Stack) SetFaultInjector(in *faultinject.Injector) {
	s.faults.Store(in)
}

// faultInjector returns the installed injector (possibly nil; all its
// methods are nil-safe).
func (s *Stack) faultInjector() *faultinject.Injector {
	return s.faults.Load()
}

// SentPackets reports how many packets passed the output path.
func (s *Stack) SentPackets() uint64 { return s.sentPackets.Load() }

// DroppedPackets reports how many packets the output filter dropped.
func (s *Stack) DroppedPackets() uint64 { return s.droppedPackets.Load() }

// Link joins two stacks point-to-point so packets addressed to the peer's
// host IP are delivered there (used by the PPP crossover-cable validation).
func Link(a, b *Stack) {
	a.mu.Lock()
	a.linked = b
	a.mu.Unlock()
	b.mu.Lock()
	b.linked = a
	b.mu.Unlock()
}

// Linked returns the stack Link joined this one to, or nil.
func (s *Stack) Linked() *Stack { s.mu.RLock(); defer s.mu.RUnlock(); return s.linked }

// AddIface registers an additional interface (e.g. a ppp modem device).
func (s *Stack) AddIface(i *Iface) {
	s.mu.Lock()
	if i.Params == nil {
		i.Params = map[string]string{}
	}
	s.ifaces[i.Name] = i
	s.movedLocked()
	s.mu.Unlock()
}

// Iface returns the named interface or nil. Its Name, Addr and Modem
// never change; its other fields change under the stack's lock, so read
// them through Ifaces or ModemBusy.
func (s *Stack) Iface(name string) *Iface {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ifaces[name]
}

// Ifaces returns a copy of every interface, session parameters
// included, in no particular order.
func (s *Stack) Ifaces() []Iface {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Iface, 0, len(s.ifaces))
	for _, i := range s.ifaces {
		c := *i
		c.Params = maps.Clone(i.Params)
		out = append(out, c)
	}
	return out
}

// ModemBusy reports whether the interface name is in use by a uid other
// than uid.
func (s *Stack) ModemBusy(name string, uid int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.ifaces[name]
	return i != nil && i.InUse && i.Owner != uid
}

// AttachModem brings the modem interface name up in use by uid
// (PPPIOCATTACH). A modem another uid uses is EBUSY.
func (s *Stack) AttachModem(name string, uid int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.ifaces[name]
	switch {
	case i == nil || !i.Modem:
		return errno.ENODEV
	case i.InUse && i.Owner != uid:
		return errno.EBUSY
	}
	i.InUse, i.Owner, i.Up = true, uid, true
	s.movedLocked()
	return nil
}

// DetachModem takes the modem interface name down and releases it
// (PPPIOCDETACH). Like AttachModem it refuses any other interface
// (ENODEV). Only the uid using it may, unless admin is set: EPERM
// otherwise.
func (s *Stack) DetachModem(name string, uid int, admin bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.ifaces[name]
	switch {
	case i == nil || !i.Modem:
		return errno.ENODEV
	case i.Owner != uid && !admin:
		return errno.EPERM
	}
	i.InUse, i.Up, i.Owner = false, false, 0
	s.movedLocked()
	return nil
}

// SetModemParam sets one session parameter on every modem uid uses
// (PPPIOCSPARAM).
func (s *Stack) SetModemParam(uid int, key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range s.ifaces {
		if i.Modem && i.Owner == uid {
			i.Params[key] = value
			s.movedLocked()
		}
	}
}

// Routes returns a snapshot of the routing table.
func (s *Stack) Routes() []Route {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Route, len(s.routes))
	copy(out, s.routes)
	return out
}

// RouteConflicts reports whether r overlaps any existing route — the
// Protego route-integrity check.
func (s *Stack) RouteConflicts(r Route) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, existing := range s.routes {
		if existing.Overlaps(r) {
			return true
		}
	}
	return false
}

// AddRoute installs a route without policy checks (the kernel/LSM layer is
// responsible for mediation).
func (s *Stack) AddRoute(r Route) {
	s.mu.Lock()
	s.routes = append(s.routes, r)
	s.movedLocked()
	s.mu.Unlock()
}

// DelRoute removes the first route matching dest/prefix; it returns false
// if no such route exists.
func (s *Stack) DelRoute(dest IP, prefixLen int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.routes {
		if r.Dest == dest && r.PrefixLen == prefixLen {
			s.routes = append(s.routes[:i], s.routes[i+1:]...)
			s.movedLocked()
			return true
		}
	}
	return false
}

// lookupRoute finds the longest-prefix route for dst, or nil. The caller
// must hold s.mu (read or write).
func (s *Stack) lookupRoute(dst IP) *Route {
	var best *Route
	for i := range s.routes {
		r := &s.routes[i]
		if r.Matches(dst) && (best == nil || r.PrefixLen > best.PrefixLen) {
			best = r
		}
	}
	return best
}

// isLocal reports whether dst addresses this host. It takes its own read
// lock (callers must not hold s.mu).
func (s *Stack) isLocal(dst IP) bool {
	if dst == IPv4(127, 0, 0, 1) || dst == s.hostIP {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, i := range s.ifaces {
		if i.Up && i.Addr == dst {
			return true
		}
	}
	return false
}
