package kernel

import (
	"testing"
	"testing/quick"

	"protego/internal/vfs"
)

// TestNoEscalationByIdentitySyscalls is the base-policy security invariant
// underneath everything else: with no LSM grants in play, NO sequence of
// setuid/seteuid/setgid/setgroups calls lets an unprivileged task reach
// euid 0 or acquire a capability. (Protego's grants are then the *only*
// doors, and each is policy-checked.)
func TestNoEscalationByIdentitySyscalls(t *testing.T) {
	f := func(ops []uint8, args []uint16) bool {
		k := New(ModeLinux)
		init := k.InitTask()
		task := k.Fork(init)
		task.SetUserCreds(UserCreds(1000, 100, 20, 30))
		for i, op := range ops {
			arg := 0
			if len(args) > 0 {
				arg = int(args[i%len(args)]) % 4000
			}
			switch op % 4 {
			case 0:
				_ = k.Setuid(task, arg)
			case 1:
				_ = k.Seteuid(task, arg)
			case 2:
				_ = k.Setgid(task, arg)
			case 3:
				_ = k.Setgroups(task, []int{arg})
			}
			c := task.Creds()
			if c.EUID == 0 || c.RUID == 0 || c.SUID == 0 || c.FUID == 0 {
				return false
			}
			if !c.Effective.IsEmpty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNoEscalationByExec extends the invariant across exec: executing any
// non-setuid binary never raises privilege.
func TestNoEscalationByExec(t *testing.T) {
	k := New(ModeLinux)
	if _, err := k.FS.Mkdir(vfs.RootCred, "/bin", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []vfs.Mode{0o755, 0o777, 0o4644 /* setuid but not executable-by-virtue-of-suid-only */} {
		path := "/bin/probe"
		if err := k.FS.WriteFile(vfs.RootCred, path, []byte("ELF"), mode, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := k.FS.Chmod(vfs.RootCred, path, mode); err != nil {
			t.Fatal(err)
		}
		var sawEUID = -1
		k.RegisterBinary(path, func(k *Kernel, t *Task) int {
			sawEUID = t.EUID()
			return 0
		})
		init := k.InitTask()
		task := k.Fork(init)
		task.SetUserCreds(UserCreds(1000, 100))
		_, err := k.Exec(task, path, []string{path}, nil)
		if mode == 0o4644 {
			// Not executable by the user: exec must fail outright.
			if err == nil {
				t.Fatalf("mode %o: exec of non-executable succeeded", mode)
			}
			continue
		}
		if err != nil {
			t.Fatalf("mode %o: %v", mode, err)
		}
		if mode.IsSetuid() {
			continue // (not reached: 4644 handled above)
		}
		if sawEUID != 1000 {
			t.Fatalf("mode %o: euid %d", mode, sawEUID)
		}
		if err := k.FS.Remove(vfs.RootCred, path); err != nil {
			t.Fatal(err)
		}
	}
}
