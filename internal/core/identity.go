package core

import (
	"sync"

	"protego/internal/accountdb"
)

// identityCache memoizes uid→username and username→groups lookups so that
// hot-path policy checks (setuid, bind) do not reparse /etc/passwd on every
// system call. The monitoring daemon invalidates it when the account
// databases change; it also refreshes lazily on miss.
type identityCache struct {
	mu      sync.RWMutex
	uidName map[int]string
	groups  map[string][]string // username -> group names
	valid   bool
}

// InvalidateIdentity drops the cached uid/name/groups mappings; the next
// lookup reloads from the databases.
func (m *Module) InvalidateIdentity() {
	m.identity.mu.Lock()
	m.identity.valid = false
	m.identity.mu.Unlock()
}

func (m *Module) refreshIdentityLocked() {
	c := &m.identity
	c.uidName = make(map[int]string)
	c.groups = make(map[string][]string)
	c.valid = true // a read error leaves a negative cache until invalidated
	users, err := m.db.Users()
	if err != nil {
		return
	}
	for i := range users {
		c.uidName[users[i].UID] = users[i].Name
	}
	groups, err := m.db.Groups()
	if err != nil {
		return
	}
	for i := range users {
		// A duplicated name takes its first record's groups, as a
		// lookup by name would.
		if _, ok := c.groups[users[i].Name]; !ok {
			c.groups[users[i].Name] = accountdb.GroupNames(&users[i], groups)
		}
	}
}

// userName resolves a uid to a username ("" if unknown).
func (m *Module) userName(uid int) string {
	c := &m.identity
	c.mu.RLock()
	if c.valid {
		name := c.uidName[uid]
		c.mu.RUnlock()
		return name
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid {
		m.refreshIdentityLocked()
	}
	return c.uidName[uid]
}

// ResolveGroups implements lsm.GroupResolver: the primary gid and the
// supplementary group ids of a uid. The kernel applies them when it grants
// a transition at setuid (the su policy), and ExecCheck when it completes
// a deferred one, so both grants leave the task with the target's groups.
func (m *Module) ResolveGroups(uid int) (int, []int, bool) {
	name := m.userName(uid)
	if name == "" {
		return 0, nil, false
	}
	u, err := m.db.LookupUser(name)
	if err != nil {
		return 0, nil, false
	}
	groups, err := m.db.GroupIDsOf(name)
	if err != nil {
		return 0, nil, false
	}
	return u.GID, groups, true
}

// userGroups returns the group names of a username.
func (m *Module) userGroups(name string) []string {
	c := &m.identity
	c.mu.RLock()
	if c.valid {
		gs := c.groups[name]
		c.mu.RUnlock()
		return gs
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid {
		m.refreshIdentityLocked()
	}
	return c.groups[name]
}
