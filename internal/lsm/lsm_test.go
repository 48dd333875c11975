package lsm

import (
	"errors"
	"testing"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/trace"
)

// scriptedModule returns fixed decisions for chain-combination tests.
type scriptedModule struct {
	Base
	name     string
	mount    Decision
	mountErr error
	setuid   Decision
	gid      int
	groups   []int
	update   *CredUpdate
	execErr  error

	// mountCalls counts MountCheck invocations (short-circuit tests).
	mountCalls int
}

func (m *scriptedModule) Name() string { return m.name }
func (m *scriptedModule) MountCheck(Task, *MountRequest) (Decision, error) {
	m.mountCalls++
	return m.mount, m.mountErr
}
func (m *scriptedModule) SetuidCheck(Task, int) (Decision, error) { return m.setuid, nil }
func (m *scriptedModule) ExecCheck(Task, *ExecRequest) (*CredUpdate, error) {
	return m.update, m.execErr
}
func (m *scriptedModule) ResolveGroups(int) (int, []int, bool) {
	if m.groups == nil {
		return 0, nil, false
	}
	return m.gid, m.groups, true
}

// nullTask satisfies Task for chain tests.
type nullTask struct {
	NullFilterSlot
	blobs map[string]any
}

func (n *nullTask) PID() int              { return 1 }
func (n *nullTask) UID() int              { return 1000 }
func (n *nullTask) EUID() int             { return 1000 }
func (n *nullTask) GID() int              { return 100 }
func (n *nullTask) EGID() int             { return 100 }
func (n *nullTask) Groups() []int         { return nil }
func (n *nullTask) Capable(caps.Cap) bool { return false }
func (n *nullTask) BinaryPath() string    { return "/bin/x" }
func (n *nullTask) SecurityBlob(k string) any {
	return n.blobs[k]
}
func (n *nullTask) SetSecurityBlob(k string, v any) {
	if n.blobs == nil {
		n.blobs = map[string]any{}
	}
	n.blobs[k] = v
}

func TestDecisionString(t *testing.T) {
	cases := map[Decision]string{
		NoOpinion: "no-opinion", Grant: "grant", DeferToExec: "defer-to-exec",
		Deny: "deny", Decision(99): "invalid",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("%d: %q", d, d.String())
		}
	}
}

func TestChainDenyWins(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a", mount: Grant},
		&scriptedModule{name: "b", mount: Deny, mountErr: errno.EACCES},
	)
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Deny || err != errno.EACCES {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestChainGrantBeatsNoOpinion(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a", mount: NoOpinion},
		&scriptedModule{name: "b", mount: Grant},
	)
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Grant || err != nil {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestChainDeferBeatsGrant(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a", setuid: Grant},
		&scriptedModule{name: "b", setuid: DeferToExec},
	)
	dec, err := c.SetuidCheck(&nullTask{}, 0)
	if dec != DeferToExec || err != nil {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestChainEmptyIsNoOpinion(t *testing.T) {
	c := NewChain()
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != NoOpinion || err != nil {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestChainExecFirstUpdateWins(t *testing.T) {
	uid1, uid2 := 1, 2
	c := NewChain(
		&scriptedModule{name: "a", update: &CredUpdate{UID: &uid1}},
		&scriptedModule{name: "b", update: &CredUpdate{UID: &uid2}},
	)
	u, err := c.ExecCheck(&nullTask{}, &ExecRequest{})
	if err != nil || u == nil || *u.UID != 1 {
		t.Fatalf("update: %+v %v", u, err)
	}
}

func TestChainExecVeto(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a"},
		&scriptedModule{name: "b", execErr: errno.EPERM},
	)
	if _, err := c.ExecCheck(&nullTask{}, &ExecRequest{}); !errors.Is(err, errno.EPERM) {
		t.Fatalf("err=%v", err)
	}
}

func TestChainResolveGroups(t *testing.T) {
	c := NewChain(
		&scriptedModule{name: "a"},                              // no resolver data
		&scriptedModule{name: "b", gid: 7, groups: []int{7, 9}}, // resolves
	)
	gid, groups, ok := c.ResolveGroups(1000)
	if !ok || gid != 7 || len(groups) != 2 {
		t.Fatalf("groups: %d %v %v", gid, groups, ok)
	}
	empty := NewChain(&scriptedModule{name: "a"})
	if _, _, ok := empty.ResolveGroups(1000); ok {
		t.Fatal("resolved from nothing")
	}
}

func TestBaseDefaults(t *testing.T) {
	var b Base
	task := &nullTask{}
	if d, err := b.MountCheck(task, nil); d != NoOpinion || err != nil {
		t.Fatal("MountCheck default")
	}
	if d, _ := b.UmountCheck(task, nil); d != NoOpinion {
		t.Fatal("UmountCheck default")
	}
	if d, _ := b.SocketCreate(task, nil); d != NoOpinion {
		t.Fatal("SocketCreate default")
	}
	if d, _ := b.BindCheck(task, nil); d != NoOpinion {
		t.Fatal("BindCheck default")
	}
	if d, _ := b.IoctlCheck(task, nil); d != NoOpinion {
		t.Fatal("IoctlCheck default")
	}
	if d, _ := b.SetuidCheck(task, 0); d != NoOpinion {
		t.Fatal("SetuidCheck default")
	}
	if d, _ := b.SetgidCheck(task, 0); d != NoOpinion {
		t.Fatal("SetgidCheck default")
	}
	if u, err := b.ExecCheck(task, nil); u != nil || err != nil {
		t.Fatal("ExecCheck default")
	}
	if d, _ := b.FileOpen(task, OpenRequest{}); d != NoOpinion {
		t.Fatal("FileOpen default")
	}
}

func TestCombinePrecedence(t *testing.T) {
	order := []Decision{NoOpinion, Grant, DeferToExec, Deny}
	for i, weaker := range order {
		for _, stronger := range order[i:] {
			if got := combine(weaker, stronger); got != stronger {
				t.Errorf("combine(%v, %v) = %v, want %v", weaker, stronger, got, stronger)
			}
			if got := combine(stronger, weaker); got != stronger {
				t.Errorf("combine(%v, %v) = %v, want %v", stronger, weaker, got, stronger)
			}
		}
	}
}

func TestChainDenyShortCircuits(t *testing.T) {
	tail := &scriptedModule{name: "tail", mount: Grant}
	c := NewChain(
		&scriptedModule{name: "denier", mount: Deny},
		tail,
	)
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Deny {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
	if tail.mountCalls != 0 {
		t.Fatalf("module after denier consulted %d times, want 0", tail.mountCalls)
	}
}

func TestChainFirstErrorShortCircuits(t *testing.T) {
	tail := &scriptedModule{name: "tail", mount: Grant}
	c := NewChain(
		// An error with a permissive decision still aborts the chain as
		// Deny: a module that cannot evaluate must fail closed.
		&scriptedModule{name: "broken", mount: Grant, mountErr: errno.EIO},
		tail,
	)
	dec, err := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Deny || !errors.Is(err, errno.EIO) {
		t.Fatalf("dec=%v err=%v, want Deny/EIO", dec, err)
	}
	if tail.mountCalls != 0 {
		t.Fatalf("module after error consulted %d times, want 0", tail.mountCalls)
	}
}

func TestChainTracerWinnerAndCounters(t *testing.T) {
	tr := trace.New(64)
	c := NewChain(
		&scriptedModule{name: "quiet", mount: NoOpinion},
		&scriptedModule{name: "granter", mount: Grant},
	)
	c.SetTracer(tr)
	if dec, _ := c.MountCheck(&nullTask{}, &MountRequest{}); dec != Grant {
		t.Fatalf("dec=%v", dec)
	}

	evs := tr.SnapshotKind(trace.KindLSMDecision)
	if len(evs) != 1 {
		t.Fatalf("decision events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "MountCheck" || ev.Module != "granter" || ev.Decision != "grant" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.PID != 1 || ev.UID != 1000 {
		t.Fatalf("event pid/uid = %d/%d", ev.PID, ev.UID)
	}

	ctrs := tr.Counters()
	if ctrs[trace.CounterKey{Hook: "MountCheck", Module: "quiet", Decision: "no-opinion"}] != 1 {
		t.Fatalf("quiet counter missing: %v", ctrs)
	}
	if ctrs[trace.CounterKey{Hook: "MountCheck", Module: "granter", Decision: "grant"}] != 1 {
		t.Fatalf("granter counter missing: %v", ctrs)
	}
	if tr.HookHistogram("MountCheck").Count != 1 {
		t.Fatalf("hook histogram count = %d", tr.HookHistogram("MountCheck").Count)
	}
}

func TestChainTracerDenierIsWinner(t *testing.T) {
	tr := trace.New(64)
	c := NewChain(
		&scriptedModule{name: "granter", mount: Grant},
		&scriptedModule{name: "denier", mount: Deny, mountErr: errno.EACCES},
	)
	c.SetTracer(tr)
	c.MountCheck(&nullTask{}, &MountRequest{})
	evs := tr.SnapshotKind(trace.KindLSMDecision)
	if len(evs) != 1 || evs[0].Module != "denier" || evs[0].Decision != "deny" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Err == "" {
		t.Fatal("deny event should carry the error")
	}
}

func TestChainTracerExecCheck(t *testing.T) {
	tr := trace.New(64)
	uid := 0
	c := NewChain(
		&scriptedModule{name: "quiet"},
		&scriptedModule{name: "delegator", update: &CredUpdate{UID: &uid}},
	)
	c.SetTracer(tr)
	if _, err := c.ExecCheck(&nullTask{}, &ExecRequest{}); err != nil {
		t.Fatal(err)
	}
	evs := tr.SnapshotKind(trace.KindLSMDecision)
	if len(evs) != 1 || evs[0].Name != "ExecCheck" || evs[0].Module != "delegator" || evs[0].Decision != "grant" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestChainRegister(t *testing.T) {
	c := NewChain()
	c.Register(&scriptedModule{name: "late", mount: Grant})
	if len(c.Modules()) != 1 {
		t.Fatal("register failed")
	}
	dec, _ := c.MountCheck(&nullTask{}, &MountRequest{})
	if dec != Grant {
		t.Fatal("late module ignored")
	}
}
