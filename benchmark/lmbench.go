package main

import (
	"errors"
	"fmt"
	"math/rand"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/netstack"
	"protego/internal/userspace"
	"protego/internal/world"
)

// lmOp is one Table-5 lmbench operation, issued as root like the paper's
// run. want is the error the op must return.
type lmOp struct {
	name string
	want error
	do   func(im *lmImage) error
}

// lmFileSize bounds the read and write files: the descriptors are
// reopened each time this many 1-byte ops have moved their offset.
const lmFileSize = 4096

var lmOps = []lmOp{
	{name: "getpid", do: func(im *lmImage) error { im.m.K.Getpid(im.root); return nil }},
	{name: "read", do: func(im *lmImage) error {
		buf, err := im.m.K.Read(im.root, im.readFD, 1)
		if err == nil && len(buf) != 1 {
			err = fmt.Errorf("read returned %d bytes", len(buf))
		}
		if im.reads++; im.reads%lmFileSize == 0 && err == nil {
			err = im.reopen(&im.readFD, lmReadPath, kernel.O_RDONLY)
		}
		return err
	}},
	{name: "write", do: func(im *lmImage) error {
		_, err := im.m.K.Write(im.root, im.writeFD, lmByte)
		if im.writes++; im.writes%lmFileSize == 0 && err == nil {
			err = im.reopen(&im.writeFD, lmWritePath, kernel.O_WRONLY|kernel.O_TRUNC)
		}
		return err
	}},
	{name: "stat", do: func(im *lmImage) error { _, err := im.m.K.Stat(im.root, lmReadPath); return err }},
	{name: "stat_miss", want: errno.ENOENT, do: func(im *lmImage) error {
		_, err := im.m.K.Stat(im.root, "/etc/nonexistent-page")
		return err
	}},
	{name: "open_close", do: func(im *lmImage) error {
		fd, err := im.m.K.Open(im.root, lmReadPath, kernel.O_RDONLY)
		if err != nil {
			return err
		}
		return im.m.K.CloseFD(im.root, fd)
	}},
	{name: "setuid", do: func(im *lmImage) error { return im.m.K.Setuid(im.root, 0) }},
	{name: "setgid", do: func(im *lmImage) error { return im.m.K.Setgid(im.root, 0) }},
	{name: "sigaction", do: func(im *lmImage) error { return im.m.K.SigAction(im.root, lmSignal, im.handler) }},
	{name: "kill", do: func(im *lmImage) error {
		im.kills++
		return im.m.K.Kill(im.root, im.root.PID(), lmSignal)
	}},
	{name: "create0", do: func(im *lmImage) error { return im.createUnlink(nil) }},
	{name: "create10k", do: func(im *lmImage) error { return im.createUnlink(lm10K) }},
	{name: "fork_exit", do: func(im *lmImage) error {
		im.m.K.Exit(im.m.K.Fork(im.root), 0)
		return nil
	}},
	{name: "fork_exec", do: func(im *lmImage) error {
		res, err := im.m.K.Spawn(im.root, userspace.BinSh, lmShArgv, nil, kernel.SpawnOpts{})
		if err == nil && res.Code != 0 {
			err = fmt.Errorf("sh exited %d", res.Code)
		}
		return err
	}},
	{name: "ioctl", do: func(im *lmImage) error {
		return im.m.K.Ioctl(im.root, userspace.VideoDevice, kernel.VIDIOCSMODE, "800x600")
	}},
	{name: "bind", do: func(im *lmImage) error {
		sock, err := im.m.K.Socket(im.root, netstack.AF_INET, netstack.SOCK_STREAM, netstack.IPPROTO_TCP)
		if err != nil {
			return err
		}
		err = im.m.K.Bind(im.root, sock, 512)
		if cerr := im.m.K.CloseSocket(im.root, sock); err == nil {
			err = cerr
		}
		return err
	}},
	{name: "mount_umount", do: func(im *lmImage) error {
		if err := im.m.K.Mount(im.root, "/dev/sdc1", "/mnt/backup", "ext4", nil); err != nil {
			return err
		}
		return im.m.K.Umount(im.root, "/mnt/backup")
	}},
}

const (
	lmReadPath  = "/etc/lmbench.read"
	lmWritePath = "/tmp/lmbench.write"
	lmChurnPath = "/tmp/lmbench.churn"
	lmSignal    = 10
)

var (
	lmByte   = []byte{'x'}
	lm10K    = make([]byte, 10*1024)
	lmShArgv = []string{userspace.BinSh}
)

// lmImage is one image's root session with the descriptors the read and
// write ops use.
type lmImage struct {
	m               *world.Machine
	root            *kernel.Task
	readFD, writeFD int
	reads, writes   int
	kills, fired    int
	handler         func(int)
	spans           []string
	base            imageState
}

func newLmImage(mode kernel.Mode, prefix string) (*lmImage, error) {
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	root, err := m.Session("root")
	if err != nil {
		return nil, err
	}
	im := &lmImage{m: m, root: root}
	im.handler = func(int) { im.fired++ }
	if err := m.K.WriteFile(root, lmReadPath, make([]byte, lmFileSize)); err != nil {
		return nil, err
	}
	if im.readFD, err = m.K.Open(root, lmReadPath, kernel.O_RDONLY); err != nil {
		return nil, err
	}
	if im.writeFD, err = m.K.Open(root, lmWritePath, kernel.O_WRONLY|kernel.O_CREAT); err != nil {
		return nil, err
	}
	if err := m.K.SigAction(root, lmSignal, im.handler); err != nil {
		return nil, err
	}
	for _, op := range lmOps {
		im.spans = append(im.spans, prefix+"kernel."+op.name)
	}
	im.base = captureState(m)
	return im, nil
}

func (im *lmImage) reopen(fd *int, path string, flags int) error {
	if err := im.m.K.CloseFD(im.root, *fd); err != nil {
		return err
	}
	var err error
	*fd, err = im.m.K.Open(im.root, path, flags)
	return err
}

func (im *lmImage) createUnlink(data []byte) error {
	if err := im.m.K.WriteFile(im.root, lmChurnPath, data); err != nil {
		return err
	}
	return im.m.K.Unlink(im.root, lmChurnPath)
}

func (im *lmImage) check() error {
	if im.fired != im.kills {
		return fmt.Errorf("signal handler fired %d times for %d kills", im.fired, im.kills)
	}
	return im.base.check(im.m)
}

// lmbench is the lmbench-mix workload: a seeded deck of Table-5 ops,
// replayed every round on each image.
type lmbench struct {
	tr   *spanTracer
	deck []uint8
	img  []*lmImage
}

func newLmbench(spec *workloadSpec, seed int64, opts *options) (instance, error) {
	w := &lmbench{deck: buildDeck(len(lmOps), spec.OpsPerRound, seed)}
	for _, mode := range twoImages {
		im, err := newLmImage(mode, imagePrefix(mode))
		if err != nil {
			return nil, fmt.Errorf("lmbench-mix %s: %w", imageName(mode), err)
		}
		opts.prepare(im.m)
		w.img = append(w.img, im)
	}
	return w, nil
}

func (w *lmbench) images() []string         { return []string{imgProtego, imgBaseline} }
func (w *lmbench) setTracer(tr *spanTracer) { w.tr = tr }

func (w *lmbench) machines(img int) []*world.Machine {
	return []*world.Machine{w.img[img].m}
}

func (w *lmbench) run(img, _, i int) error {
	im := w.img[img]
	k := w.deck[i%len(w.deck)]
	op := &lmOps[k]
	w.tr.begin(im.spans[k])
	err := op.do(im)
	w.tr.end()
	if err == op.want || (op.want != nil && errors.Is(err, op.want)) {
		return nil
	}
	return fmt.Errorf("%s on %s: got %v, want %v", op.name, w.images()[img], err, op.want)
}

func (w *lmbench) check() error {
	for i, im := range w.img {
		if err := im.check(); err != nil {
			return fmt.Errorf("%s: %w", w.images()[i], err)
		}
	}
	return nil
}

// buildDeck deals n op indices, each of the kinds ops equally often, and
// shuffles them with the seed. Equal shares follow Table 5, which reports
// every op on its own row with no weights.
func buildDeck(kinds, n int, seed int64) []uint8 {
	deck := make([]uint8, n)
	for i := range deck {
		deck[i] = uint8(i % kinds)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// imageState is what an image must return to after a workload: its task
// count and its mount table.
type imageState struct {
	tasks int
	mtab  string
}

func captureState(m *world.Machine) imageState {
	return imageState{tasks: m.K.TaskCount(), mtab: m.K.FS.FormatMtab()}
}

func (s imageState) check(m *world.Machine) error {
	if n := m.K.TaskCount(); n != s.tasks {
		return fmt.Errorf("%d tasks live, %d at set-up", n, s.tasks)
	}
	if mtab := m.K.FS.FormatMtab(); mtab != s.mtab {
		return fmt.Errorf("mount table changed:\n%s\nset-up:\n%s", mtab, s.mtab)
	}
	return nil
}
