package kernel

import (
	"time"

	"protego/internal/caps"
	"protego/internal/errno"
	"protego/internal/lsm"
	"protego/internal/vfs"
)

// Device ioctl commands used by the studied utilities.
const (
	// PPPIOCSPARAM configures a modem session parameter (arg is a
	// [2]string{key, value}); safe parameters are grantable to
	// unprivileged users under the ppp options policy.
	PPPIOCSPARAM uint32 = 0x7401
	// PPPIOCATTACH claims a modem device for a ppp session.
	PPPIOCATTACH uint32 = 0x7402
	// PPPIOCDETACH releases a modem device.
	PPPIOCDETACH uint32 = 0x7403
	// DMGETINFO returns the full dmcrypt metadata — including key
	// material, which is why the baseline requires CAP_SYS_ADMIN and
	// why Protego abandons this ioctl for a /sys file (§4 Table 4).
	DMGETINFO uint32 = 0x7601
	// VIDIOCSMODE sets the video card control state (the X server's
	// privileged operation, obviated by KMS).
	VIDIOCSMODE uint32 = 0x7701
)

// Ioctl implements ioctl(2) on device files. The device's DAC bits are
// checked first (Protego changed /dev/ppp permissions to be more
// permissive, replacing a capability check with device file permissions);
// then the LSM mediates; then the registered device handler runs with the
// grant decision.
func (k *Kernel) Ioctl(t *Task, devPath string, cmd uint32, arg any) (err error) {
	tok, err := k.enter(t, SysIoctl)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	clean := vfs.CleanPath(devPath, t.Cwd())
	creds := t.credsRef()
	ino, err := k.FS.LookupClean(creds, clean)
	if err != nil {
		return err
	}
	if !ino.Mode.IsDevice() && !ino.IsProc() {
		return errno.ENOTTY
	}
	if err := vfs.CheckAccess(creds, ino, vfs.MayRead); err != nil {
		return err
	}
	req := &lsm.IoctlRequest{Path: clean, Cmd: cmd, Arg: arg}
	dec, lerr := k.LSM.IoctlCheck(t, req)
	if dec == lsm.Deny {
		k.Auditf("ioctl denied by lsm: pid=%d uid=%d dev=%s cmd=%#x", t.PID(), t.UID(), clean, cmd)
		return denyErr(lerr, errno.EPERM)
	}
	handler := k.lookupDevice(clean)
	if handler == nil {
		return errno.ENOTTY
	}
	return handler(t, cmd, arg, dec == lsm.Grant)
}

// SigAction installs a signal handler (lmbench "sig install").
func (k *Kernel) SigAction(t *Task, sig int, handler func(int)) (err error) {
	tok, err := k.enter(t, SysSigAction)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	if sig <= 0 || sig > 64 {
		return errno.EINVAL
	}
	t.mu.Lock()
	t.sigHandlers[sig] = handler
	t.mu.Unlock()
	return nil
}

// Kill delivers a signal to the target pid. Permission follows Unix rules:
// same real/effective uid, or CAP_KILL.
func (k *Kernel) Kill(t *Task, pid, sig int) (err error) {
	tok, err := k.enter(t, SysKill)
	defer func() { k.Trace.SyscallExit(tok, err) }()
	if err != nil {
		return err
	}
	target := k.Task(pid)
	if target == nil {
		return errno.ESRCH
	}
	tc := t.credsRef()
	oc := target.credsRef()
	if tc.EUID != 0 && tc.RUID != oc.RUID && tc.EUID != oc.RUID && !t.Capable(caps.CAP_KILL) {
		return errno.EPERM
	}
	target.mu.Lock()
	handler := target.sigHandlers[sig]
	target.mu.Unlock()
	if handler != nil {
		handler(sig)
	}
	return nil
}

// Pipe is a unidirectional byte channel between tasks, used by the
// lmbench-style pipe latency benchmark and the shell plumbing.
type Pipe struct {
	ch chan []byte
}

// NewPipe creates a pipe with a bounded buffer.
func (k *Kernel) NewPipe() *Pipe {
	return &Pipe{ch: make(chan []byte, 64)}
}

// Write sends data into the pipe, blocking if full.
func (p *Pipe) Write(data []byte) (int, error) {
	buf := make([]byte, len(data))
	copy(buf, data)
	// A stopped timer is freed at once; time.After's would stay in the
	// timer heap for the whole timeout after every prompt write.
	timer := time.NewTimer(5 * time.Second)
	defer timer.Stop()
	select {
	case p.ch <- buf:
		return len(data), nil
	case <-timer.C:
		return 0, errno.EPIPE
	}
}

// Read receives the next chunk from the pipe.
func (p *Pipe) Read(timeout time.Duration) ([]byte, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case data, ok := <-p.ch:
		if !ok {
			return nil, errno.EPIPE
		}
		return data, nil
	case <-timer.C:
		return nil, errno.EAGAIN
	}
}

// Close closes the write end.
func (p *Pipe) Close() { close(p.ch) }

// UnixSocketPair returns a connected pair of in-kernel byte channels
// (AF_UNIX stream semantics) for the lmbench AF_UNIX latency test.
func (k *Kernel) UnixSocketPair() (*Pipe, *Pipe) {
	return k.NewPipe(), k.NewPipe()
}

// RegisterProcFile exposes a synthetic file under /proc. Policy modules use
// this for their configuration interface; the path's parents must exist.
func (k *Kernel) RegisterProcFile(path string, mode vfs.Mode, read vfs.ProcReadFunc, write vfs.ProcWriteFunc) error {
	_, err := k.FS.CreateProc(vfs.CleanPath(path, "/"), mode, read, write)
	return err
}
