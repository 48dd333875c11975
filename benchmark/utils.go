package main

import (
	"fmt"
	"strings"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/world"
)

// deniedExit is the exit code of a utility that refuses its request.
const deniedExit = 1

// utilCall is one Machine.Run of a studied utility and its expected
// outcome. A grant exits 0. A denial exits deniedExit and prints the
// image's refusal on stderr: the kernel's EPERM on Protego, the setuid
// utility's own check on the baseline. A failed exec fails the call either
// way, and a refusal with another exit code or message (a wrong password,
// say) does not pass for the expected denial.
type utilCall struct {
	util   string
	argv   []string
	asker  func(string) string
	refuse [2]string // the stderr of a denial, by image index; empty for a grant
	spans  [2]string // per image index: "userspace.<util>", "baseline.userspace.<util>"
}

func grant(util string, asker func(string) string, argv ...string) utilCall {
	return newUtilCall(util, asker, [2]string{}, argv)
}

// deny expects a denial that prints protego on the Protego image and
// baseline on the baseline image.
func deny(util, protego, baseline string, argv ...string) utilCall {
	return newUtilCall(util, nil, [2]string{protego, baseline}, argv)
}

func newUtilCall(util string, asker func(string) string, refuse [2]string, argv []string) utilCall {
	c := utilCall{util: util, argv: argv, asker: asker, refuse: refuse}
	for i, mode := range twoImages {
		c.spans[i] = imagePrefix(mode) + "userspace." + util
	}
	return c
}

func (c *utilCall) do(tr *spanTracer, img int, m *world.Machine, sess *kernel.Task) error {
	tr.begin(c.spans[img])
	code, _, stderr, err := m.Run(sess, c.argv, c.asker)
	tr.end()
	want := c.refuse[img]
	switch {
	case err != nil:
		return fmt.Errorf("%v: exec: %v", c.argv, err)
	case want == "" && code != 0:
		return fmt.Errorf("%v: exit %d: %s", c.argv, code, stderr)
	case want != "" && code == 0:
		return fmt.Errorf("%v: unexpectedly granted", c.argv)
	case want != "" && (code != deniedExit || strings.TrimSpace(stderr) != want):
		return fmt.Errorf("%v: exit %d, stderr %q; want a denial with exit %d, stderr %q", c.argv, code, stderr, deniedExit, want)
	}
	return nil
}

// mountDenial is alice's refused mount of dev on point; sudoIDDenial is
// charlie's refused sudo id.
func mountDenial(dev, point string) utilCall {
	return deny("mount", "mount: "+point+": operation not permitted",
		"mount: only root can mount "+dev+" on "+point, userspace.BinMount, dev, point)
}

var sudoIDDenial = deny("sudo", "sudo: "+userspace.BinID+": operation not permitted",
	"sudo: charlie is not allowed to run "+userspace.BinID+" as root", userspace.BinSudo, userspace.BinID)

// utilOp is one op of the setuid-utils deck: a session user and the
// utility runs it makes, each a self-contained session (a mount is always
// followed by its umount).
type utilOp struct {
	name  string
	user  string
	calls []utilCall
}

var setuidUtilOps = []utilOp{
	{"mount_umount", "alice", []utilCall{
		grant("mount", nil, userspace.BinMount, "/dev/cdrom", "/cdrom"),
		grant("umount", nil, userspace.BinUmount, "/cdrom"),
	}},
	{"sudo_nopasswd", "charlie", []utilCall{grant("sudo", nil, userspace.BinSudo, userspace.BinLs, "/")}},
	{"sudo_passwd", "alice", []utilCall{
		grant("sudo", world.AnswerWith(world.AlicePassword), userspace.BinSudo, userspace.BinID),
	}},
	{"su", "bob", []utilCall{
		grant("su", world.AnswerWith(world.AlicePassword), userspace.BinSu, "alice", "-c", userspace.BinID),
	}},
	{"ping", "alice", []utilCall{grant("ping", nil, userspace.BinPing, "-c", "1", "10.0.0.2")}},
	{"newgrp", "charlie", []utilCall{
		grant("newgrp", world.AnswerWith(world.OpsGroupPassword), userspace.BinNewgrp, "ops"),
	}},
	{"chfn", "bob", []utilCall{
		grant("chfn", world.AnswerWith(world.BobPassword), userspace.BinChfn, "-f", "Robert"),
	}},
	{"mount_denied", "alice", []utilCall{mountDenial("/dev/sdc1", "/mnt/backup")}},
	{"sudo_denied", "charlie", []utilCall{sudoIDDenial}},
}

// utilImage is one image with a logged-in session per deck user.
type utilImage struct {
	m        *world.Machine
	sessions []*kernel.Task // by op index
	base     imageState
}

// setuidUtils is the setuid-utils workload: a seeded deck of utility
// runs, about a fifth of them expected denials.
type setuidUtils struct {
	tr   *spanTracer
	deck []uint8
	img  []*utilImage
}

func newSetuidUtils(spec *workloadSpec, seed int64, opts *options) (instance, error) {
	w := &setuidUtils{deck: buildDeck(len(setuidUtilOps), spec.OpsPerRound, seed)}
	for _, mode := range twoImages {
		m, err := world.Build(world.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		opts.prepare(m)
		im := &utilImage{m: m}
		byUser := map[string]*kernel.Task{}
		for _, op := range setuidUtilOps {
			if byUser[op.user] == nil {
				if byUser[op.user], err = m.Session(op.user); err != nil {
					return nil, err
				}
			}
			im.sessions = append(im.sessions, byUser[op.user])
		}
		im.base = captureState(m)
		w.img = append(w.img, im)
	}
	return w, nil
}

func (w *setuidUtils) images() []string         { return []string{imgProtego, imgBaseline} }
func (w *setuidUtils) setTracer(tr *spanTracer) { w.tr = tr }

func (w *setuidUtils) machines(img int) []*world.Machine {
	return []*world.Machine{w.img[img].m}
}

func (w *setuidUtils) run(img, _, i int) error {
	im := w.img[img]
	k := w.deck[i%len(w.deck)]
	op := &setuidUtilOps[k]
	for j := range op.calls {
		if err := op.calls[j].do(w.tr, img, im.m, im.sessions[k]); err != nil {
			return fmt.Errorf("%s on %s: %w", op.name, w.images()[img], err)
		}
	}
	return nil
}

func (w *setuidUtils) check() error {
	for i, im := range w.img {
		if err := im.base.check(im.m); err != nil {
			return fmt.Errorf("%s: %w", w.images()[i], err)
		}
	}
	return nil
}
