package netstack

import "maps"

// Clone returns a deep copy of the stack for machine snapshots:
// interfaces (including modem session parameters), routes, sockets, and
// the bound-port table are duplicated so the clone's network churn never
// shows through to the parent. Cloned sockets start with nothing queued
// and no peer link — a cross-machine peer pointer would deliver packets
// into the wrong machine. The output filter and link partner are
// deliberately left unset; the owning kernel wires both to the clone's
// own netfilter table.
func (s *Stack) Clone() *Stack {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &Stack{
		hostIP:   s.hostIP,
		ifaces:   make(map[string]*Iface, len(s.ifaces)),
		routes:   append([]Route(nil), s.routes...),
		nextSock: s.nextSock,
	}
	// The socket and port maps are made on first insert, so a stack
	// without sockets clones without them.
	if len(s.sockets) > 0 {
		c.sockets = make(map[int]*Socket, len(s.sockets))
		c.ports = make(map[portKey]*Socket, len(s.ports))
	}
	for name, ifc := range s.ifaces {
		ci := *ifc
		if ifc.Params != nil {
			ci.Params = maps.Clone(ifc.Params)
		}
		c.ifaces[name] = &ci
	}
	for id, sock := range s.sockets {
		c.sockets[id] = sock.cloneInto(c)
	}
	for pk, sock := range s.ports {
		if cs, ok := c.sockets[sock.ID]; ok {
			c.ports[pk] = cs
		}
	}
	return c
}

// cloneInto copies the socket's identity and state onto a new stack with
// nothing queued and no peer: the receive queue is made on the clone's
// first use, and a listener gets a fresh, empty accept queue.
func (sock *Socket) cloneInto(c *Stack) *Socket {
	sock.mu.Lock()
	defer sock.mu.Unlock()
	cs := &Socket{
		ID:          sock.ID,
		Family:      sock.Family,
		Type:        sock.Type,
		Proto:       sock.Proto,
		LocalIP:     sock.LocalIP,
		LocalPort:   sock.LocalPort,
		RemoteIP:    sock.RemoteIP,
		RemotePort:  sock.RemotePort,
		OwnerUID:    sock.OwnerUID,
		OwnerBinary: sock.OwnerBinary,
		UnprivRaw:   sock.UnprivRaw,
		stack:       c,
		listening:   sock.listening,
		connected:   sock.connected,
		closed:      sock.closed,
	}
	if sock.acceptQ != nil {
		cs.acceptQ = make(chan *Socket, cap(sock.acceptQ))
	}
	return cs
}
