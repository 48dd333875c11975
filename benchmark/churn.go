package main

import (
	"fmt"
	"strings"

	"protego/internal/kernel"
	"protego/internal/monitord"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// churnDevices is the number of devices the fstab rows of policy-churn
// rotate through (K = i mod churnDevices).
const churnDevices = 8

const churnSudoersPath = monitord.SudoersDir + "/churn"

// charlie, not bob: on Protego a NOPASSWD sudoers.d rule for bob is
// shadowed by his earlier password rule (see README.md).
var churnSudoersRule = []byte("charlie ALL=(root) NOPASSWD: " + userspace.BinID + "\n")

// churnImage is one image of policy-churn with its sessions and the
// pre-built utility runs of each step.
type churnImage struct {
	m                    *world.Machine
	root, alice, charlie *kernel.Task
	baseFstab            []byte
	withRow              [churnDevices][]byte
	mount, umount        [churnDevices]utilCall
	mountDenied          [churnDevices]utilCall
	sudoGranted          utilCall
	sudoDenied           utilCall
	// passwd[j] changes alice's password from passwords[j] to
	// passwords[1-j]; sudoAfter[j] then authenticates with the new one.
	passwords [2]string
	passwd    [2]utilCall
	sudoAfter [2]utilCall
	current   int
	base      imageState
}

// policyChurn is the policy-churn workload: each op edits the policy
// files, resynchronizes the kernel's policy on Protego, and uses the new
// policy once granted and once denied.
type policyChurn struct {
	tr  *spanTracer
	img []*churnImage
}

var churnSyncSpans = [3]string{"monitord.sync_mounts", "monitord.sync_delegation", "monitord.sync_accounts"}

func newPolicyChurn(_ *workloadSpec, _ int64, opts *options) (instance, error) {
	w := &policyChurn{}
	for _, mode := range twoImages {
		im, err := newChurnImage(mode)
		if err != nil {
			return nil, fmt.Errorf("policy-churn %s: %w", imageName(mode), err)
		}
		opts.prepare(im.m)
		w.img = append(w.img, im)
	}
	return w, nil
}

func newChurnImage(mode kernel.Mode) (*churnImage, error) {
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	im := &churnImage{m: m, passwords: [2]string{world.AlicePassword, "alice-churn-pw"}}
	for _, s := range []struct {
		user string
		t    **kernel.Task
	}{{"root", &im.root}, {"alice", &im.alice}, {"charlie", &im.charlie}} {
		if *s.t, err = m.Session(s.user); err != nil {
			return nil, err
		}
	}
	if im.baseFstab, err = m.K.ReadFile(im.root, monitord.FstabPath); err != nil {
		return nil, err
	}
	for k := 0; k < churnDevices; k++ {
		dev, point := fmt.Sprintf("/dev/churn%d", k), fmt.Sprintf("/mnt/churn%d", k)
		if _, err := m.K.FS.Mknod(vfs.RootCred, dev, vfs.BlockDevice, 8, 100+k, 0o660, 0, 0); err != nil {
			return nil, err
		}
		if _, err := m.K.FS.Mkdir(vfs.RootCred, point, 0o755, 0, 0); err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%s %s ext4 rw,user,noauto 0 0\n", dev, point)
		im.withRow[k] = []byte(string(im.baseFstab) + row)
		im.mount[k] = grant("mount", nil, userspace.BinMount, dev, point)
		im.umount[k] = grant("umount", nil, userspace.BinUmount, point)
		im.mountDenied[k] = mountDenial(dev, point)
	}
	im.sudoGranted = grant("sudo", nil, userspace.BinSudo, userspace.BinID)
	im.sudoDenied = sudoIDDenial
	for j := 0; j < 2; j++ {
		oldPw, newPw := im.passwords[j], im.passwords[1-j]
		im.passwd[j] = grant("passwd", func(prompt string) string {
			if strings.Contains(prompt, "New") {
				return newPw
			}
			return oldPw
		}, userspace.BinPasswd)
		im.sudoAfter[j] = grant("sudo", world.AnswerWith(newPw), userspace.BinSudo, userspace.BinID)
	}
	im.base = captureState(m)
	return im, nil
}

func (w *policyChurn) images() []string         { return []string{imgProtego, imgBaseline} }
func (w *policyChurn) setTracer(tr *spanTracer) { w.tr = tr }

func (w *policyChurn) machines(img int) []*world.Machine {
	return []*world.Machine{w.img[img].m}
}

// sync runs one monitord synchronization on Protego; the baseline's setuid
// utilities re-read the files themselves.
func (w *policyChurn) sync(im *churnImage, span int, fn func(*monitord.Daemon) error) error {
	if im.m.Monitor == nil {
		return nil
	}
	w.tr.begin(churnSyncSpans[span])
	err := fn(im.m.Monitor)
	w.tr.end()
	return err
}

func (w *policyChurn) run(img, _, i int) error {
	if err := w.cycle(img, w.img[img], i%churnDevices); err != nil {
		return fmt.Errorf("policy-churn on %s: %w", w.images()[img], err)
	}
	return nil
}

// cycle is one edit→use op. Step numbers follow README.md.
func (w *policyChurn) cycle(img int, im *churnImage, k int) error {
	m := im.m
	// 1-2: a user-mountable row for /dev/churnK; alice mounts and unmounts.
	if err := m.K.WriteFile(im.root, monitord.FstabPath, im.withRow[k]); err != nil {
		return err
	}
	if err := w.sync(im, 0, (*monitord.Daemon).SyncMounts); err != nil {
		return err
	}
	if err := im.mount[k].do(w.tr, img, m, im.alice); err != nil {
		return err
	}
	if err := im.umount[k].do(w.tr, img, m, im.alice); err != nil {
		return err
	}
	// 3: the row goes; alice's mount is denied.
	if err := m.K.WriteFile(im.root, monitord.FstabPath, im.baseFstab); err != nil {
		return err
	}
	if err := w.sync(im, 0, (*monitord.Daemon).SyncMounts); err != nil {
		return err
	}
	if err := im.mountDenied[k].do(w.tr, img, m, im.alice); err != nil {
		return err
	}
	// 4-5: a sudoers.d rule lets charlie run id, then goes.
	if err := m.K.WriteFile(im.root, churnSudoersPath, churnSudoersRule); err != nil {
		return err
	}
	if err := w.sync(im, 1, (*monitord.Daemon).SyncDelegation); err != nil {
		return err
	}
	if err := im.sudoGranted.do(w.tr, img, m, im.charlie); err != nil {
		return err
	}
	if err := m.K.Unlink(im.root, churnSudoersPath); err != nil {
		return err
	}
	if err := w.sync(im, 1, (*monitord.Daemon).SyncDelegation); err != nil {
		return err
	}
	if err := im.sudoDenied.do(w.tr, img, m, im.charlie); err != nil {
		return err
	}
	// 6: alice changes her password and authenticates with the new one.
	if err := im.passwd[im.current].do(w.tr, img, m, im.alice); err != nil {
		return err
	}
	if err := w.sync(im, 2, (*monitord.Daemon).SyncAccountsFromFragments); err != nil {
		return err
	}
	if err := im.sudoAfter[im.current].do(w.tr, img, m, im.alice); err != nil {
		return err
	}
	im.current = 1 - im.current
	return nil
}

func (w *policyChurn) check() error {
	for i, im := range w.img {
		if err := im.base.check(im.m); err != nil {
			return fmt.Errorf("%s: %w", w.images()[i], err)
		}
	}
	return nil
}
