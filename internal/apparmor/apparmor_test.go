package apparmor

import (
	"testing"

	"protego/internal/caps"
	"protego/internal/lsm"
)

type aaTask struct {
	lsm.NullFilterSlot
	binary string
}

func (t *aaTask) PID() int                    { return 1 }
func (t *aaTask) UID() int                    { return 1000 }
func (t *aaTask) EUID() int                   { return 0 }
func (t *aaTask) GID() int                    { return 100 }
func (t *aaTask) EGID() int                   { return 100 }
func (t *aaTask) Groups() []int               { return nil }
func (t *aaTask) Capable(caps.Cap) bool       { return true }
func (t *aaTask) BinaryPath() string          { return t.binary }
func (t *aaTask) SecurityBlob(string) any     { return nil }
func (t *aaTask) SetSecurityBlob(string, any) {}

func TestUnconfinedNoOpinion(t *testing.T) {
	m := New()
	task := &aaTask{binary: "/bin/anything"}
	d, err := m.FileOpen(task, lsm.OpenRequest{Path: "/etc/shadow", Write: true})
	if d != lsm.NoOpinion || err != nil {
		t.Fatalf("unconfined: %v %v", d, err)
	}
}
