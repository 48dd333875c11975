package equiv

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"protego/internal/errno"
	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// fstabRow is one row of a generated /etc/fstab, in the test's own terms.
type fstabRow struct {
	dev, point, fstype string
	opts               []string
}

func (r *fstabRow) has(opt string) bool { return slices.Contains(r.opts, opt) }

func (r fstabRow) String() string {
	return fmt.Sprintf("%s %s %s %s 0 0\n", r.dev, r.point, r.fstype, strings.Join(r.opts, ","))
}

// The devices and mount points the generated rows use; each pair has one
// row or none. goldenRows is the image's own fstab.
var (
	mountPairs = []fstabRow{
		{dev: "/dev/cdrom", point: "/cdrom", fstype: "iso9660"},
		{dev: "/dev/sdb1", point: "/media/usb", fstype: "vfat"},
		{dev: "/dev/sdc1", point: "/mnt/backup", fstype: "ext4"},
	}
	goldenRows = []fstabRow{
		{"/dev/cdrom", "/cdrom", "iso9660", []string{"ro", "user", "noauto"}},
		{"/dev/sdb1", "/media/usb", "vfat", []string{"rw", "users", "noauto"}},
		{"/dev/sdc1", "/mnt/backup", "ext4", []string{"rw"}},
	}
	uids = map[string]int{"root": 0, "alice": world.UIDAlice, "bob": world.UIDBob}
)

// genFstab gives each pair a row mixing user/users/neither, ro/rw,
// noauto and an auto fstype.
func genFstab(r *rand.Rand) []fstabRow {
	var rows []fstabRow
	for _, p := range mountPairs {
		row := p
		row.opts = []string{[]string{"ro", "rw"}[r.Intn(2)]}
		if who := []string{"user", "users", ""}[r.Intn(3)]; who != "" {
			row.opts = append(row.opts, who)
		}
		if r.Intn(2) == 0 {
			row.opts = append(row.opts, "noauto")
		}
		if r.Intn(3) == 0 {
			row.fstype = "auto"
		}
		rows = append(rows, row)
	}
	return rows
}

func fstabText(rows []fstabRow) string {
	var b strings.Builder
	b.WriteString("/dev/sda1 / ext4 defaults 0 1\n")
	for _, r := range rows {
		b.WriteString(r.String())
	}
	return b.String()
}

// mountStep is one request of a case: a utility run (argv), a direct
// mount(2) (direct), root's write of a file under a mount (write), or the
// administrator's removal of a pair's row from fstab (dropRow).
type mountStep struct {
	user    string
	argv    []string
	direct  *fstabRow // device, point, fstype and options of the call
	write   string
	dropRow string // the row's mount point
}

func run(user string, argv ...string) mountStep { return mountStep{user: user, argv: argv} }

// stepResult is what a step shows: its exit status and its refusal class
// ("" for success, "denied" for a policy refusal, the errno name of a
// direct call's other failures, "error" for a utility's).
type stepResult struct {
	code  int
	class string
}

// refMount is one mount of the reference's table.
type refMount struct {
	dev, point, fstype string
	opts               []string
	by                 int
}

// reference is the rule written out once more, independently of the
// code under test: util-linux's user mount and umount with fusermount's
// user= check, and on Protego the kernel's grant of a direct mount(2)
// that the setuid mount(8) would have made.
type reference struct {
	protego bool
	rows    []fstabRow
	mounts  []refMount
}

var safeUserOptions = []string{"ro", "nosuid", "nodev", "noexec", "user", "users", "noauto", "sync"}

// pairRow is the first row at (dev, point), or nil.
func (r *reference) pairRow(dev, point string) *fstabRow {
	for i := range r.rows {
		if r.rows[i].dev == dev && r.rows[i].point == point {
			return &r.rows[i]
		}
	}
	return nil
}

// userMount reports whether a user may mount under row with fstype and
// opts, and what the mount then gets.
func userMount(row *fstabRow, fstype string, opts []string) (string, []string, bool) {
	if row == nil || !row.has("user") && !row.has("users") {
		return "", nil, false
	}
	if fstype != "auto" && row.fstype != "auto" && fstype != row.fstype {
		return "", nil, false
	}
	for _, o := range opts {
		if !slices.Contains(safeUserOptions, o) && !row.has(o) {
			return "", nil, false
		}
	}
	return merge(row, fstype, opts)
}

// merge is what a mount under row gets for the requested fstype and opts.
func merge(row *fstabRow, fstype string, opts []string) (string, []string, bool) {
	if fstype == "auto" {
		fstype = row.fstype
	}
	out := slices.Clone(row.opts)
	for _, o := range opts {
		if !slices.Contains(out, o) {
			out = append(out, o)
		}
	}
	return fstype, out, true
}

func (r *reference) mountAt(point string) *refMount {
	for i := range r.mounts {
		if r.mounts[i].point == point {
			return &r.mounts[i]
		}
	}
	return nil
}

// attach mounts, or fails as the kernel does when the point or the
// device is busy.
func (r *reference) attach(m refMount) stepResult {
	for _, e := range r.mounts {
		if e.point == m.point || e.dev == m.dev {
			return stepResult{1, "error"}
		}
	}
	r.mounts = append(r.mounts, m)
	return stepResult{}
}

// detach unmounts point for uid when the rule lets it.
func (r *reference) detach(point string, uid int) stepResult {
	m := r.mountAt(point)
	if m == nil {
		return stepResult{1, "error"}
	}
	if uid != 0 {
		row := r.pairRow(m.dev, m.point)
		ok := m.fstype == "fuse" && m.by == uid ||
			m.fstype != "fuse" && row != nil && (row.has("users") || row.has("user") && m.by == uid)
		if !ok {
			return stepResult{1, "denied"}
		}
	}
	r.mounts = slices.DeleteFunc(r.mounts, func(e refMount) bool { return e.point == point })
	return stepResult{}
}

func (r *reference) step(s mountStep) stepResult {
	uid := uids[s.user]
	switch {
	case s.dropRow != "":
		r.rows = slices.DeleteFunc(r.rows, func(row fstabRow) bool { return row.point == s.dropRow })
		return stepResult{}
	case s.write != "":
		if m := r.mountAt(s.write[:strings.LastIndexByte(s.write, '/')]); m != nil && slices.Contains(m.opts, "ro") {
			return stepResult{1, "EROFS"}
		}
		return stepResult{}
	case s.direct != nil:
		d := s.direct
		fstype, opts := d.fstype, d.opts
		if uid != 0 {
			var ok bool
			if fstype, opts, ok = userMount(r.pairRow(d.dev, d.point), fstype, opts); !ok || !r.protego {
				return stepResult{1, "denied"}
			}
		}
		return r.attach(refMount{d.dev, d.point, fstype, opts, uid})
	}
	switch s.argv[0] {
	case userspace.BinMount:
		fstype, opts, pos := "auto", []string(nil), []string(nil)
		for i := 1; i < len(s.argv); i++ {
			switch s.argv[i] {
			case "-t":
				i++
				fstype = s.argv[i]
			case "-o":
				i++
				opts = strings.Split(s.argv[i], ",")
			default:
				pos = append(pos, s.argv[i])
			}
		}
		var row *fstabRow
		if len(pos) == 2 {
			row = r.pairRow(pos[0], pos[1])
		} else {
			for i := range r.rows {
				if r.rows[i].dev == pos[0] || r.rows[i].point == pos[0] {
					row = &r.rows[i]
					break
				}
			}
			if row == nil {
				return stepResult{1, "error"}
			}
			pos = []string{row.dev, row.point}
		}
		if uid != 0 {
			var ok bool
			if fstype, opts, ok = userMount(row, fstype, opts); !ok {
				return stepResult{1, "denied"}
			}
		} else if row != nil {
			fstype, opts, _ = merge(row, fstype, opts)
		}
		return r.attach(refMount{pos[0], pos[1], fstype, opts, uid})
	case userspace.BinUmount:
		return r.detach(s.argv[1], uid)
	case userspace.BinEject:
		for _, m := range r.mounts {
			if m.dev == s.argv[1] {
				return r.detach(m.point, uid)
			}
		}
		return stepResult{}
	case userspace.BinFusermount:
		if s.argv[1] == "-u" {
			return r.detach(s.argv[2], uid)
		}
		return r.attach(refMount{"fuse", s.argv[1], "fuse", []string{"user"}, uid})
	}
	panic("no reference for " + s.argv[0])
}

// mtab renders the reference's table as vfs.FS.FormatMtab does.
func (r *reference) mtab() string {
	var b strings.Builder
	for _, m := range r.mounts {
		opts := slices.Clone(m.opts)
		slices.Sort(opts)
		fmt.Fprintf(&b, "%s %s %s %s 0 0\n", m.dev, m.point, m.fstype, strings.Join(opts, ","))
	}
	return b.String()
}

// runStep makes the step on m.
func runStep(t *testing.T, m *world.Machine, rows []fstabRow, s mountStep) ([]fstabRow, stepResult) {
	t.Helper()
	if s.dropRow != "" {
		rows = slices.DeleteFunc(slices.Clone(rows), func(row fstabRow) bool { return row.point == s.dropRow })
		writeFstab(t, m, rows)
		return rows, stepResult{}
	}
	sess, err := m.Session(s.user)
	if err != nil {
		t.Fatal(err)
	}
	class := func(err error) stepResult {
		switch {
		case err == nil:
			return stepResult{}
		case err == errno.EPERM:
			return stepResult{1, "denied"}
		}
		return stepResult{1, errno.Of(err).Name()}
	}
	switch {
	case s.write != "":
		return rows, class(m.K.WriteFile(sess, s.write, []byte("x")))
	case s.direct != nil:
		d := s.direct
		return rows, class(m.K.Mount(sess, d.dev, d.point, d.fstype, d.opts))
	}
	code, _, stderr, err := m.Run(sess, s.argv, nil)
	if err != nil {
		t.Fatal(err)
	}
	switch msg := strings.ToLower(stderr); {
	case code == 0:
		return rows, stepResult{}
	case strings.Contains(msg, "only root") || strings.Contains(msg, "not permitted"):
		return rows, stepResult{code, "denied"}
	}
	return rows, stepResult{code, "error"}
}

// writeFstab installs rows as /etc/fstab, and on Protego syncs the kernel's
// copy as the monitoring daemon does.
func writeFstab(t *testing.T, m *world.Machine, rows []fstabRow) {
	t.Helper()
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/fstab", []byte(fstabText(rows)), 0o644, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.Monitor != nil {
		if err := m.Monitor.SyncMounts(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkCase runs steps on a golden clone of each image whose fstab holds
// rows, and compares every step's result and the final mount table with
// the reference's.
func checkCase(t *testing.T, name string, rows []fstabRow, steps []mountStep) {
	t.Helper()
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
		snap, err := world.Golden(mode)
		if err != nil {
			t.Fatal(err)
		}
		m, err := snap.Clone()
		if err != nil {
			t.Fatal(err)
		}
		writeFstab(t, m, rows)
		ref := &reference{protego: mode == kernel.ModeProtego, rows: slices.Clone(rows)}
		got := rows
		for i, s := range steps {
			want := ref.step(s)
			var res stepResult
			got, res = runStep(t, m, got, s)
			if res != want {
				t.Errorf("%s on %s, step %d %+v: got %+v, want %+v\nfstab:\n%s", name, mode, i, s, res, want, fstabText(rows))
			}
		}
		if got, want := m.K.FS.FormatMtab(), ref.mtab(); got != want {
			t.Errorf("%s on %s: mtab\n%s want\n%s", name, mode, got, want)
		}
	}
}

// TestUserMountMatchesBaseline runs user mounts and unmounts on both
// images, over the image's fstab and over seeded ones, and checks each
// request's exit status, refusal class and the mount table against the
// reference. The named cases are the ways the images once disagreed with
// util-linux or with each other.
func TestUserMountMatchesBaseline(t *testing.T) {
	cdrom := &fstabRow{dev: "/dev/cdrom", point: "/cdrom", fstype: "auto"}
	userBackup := append(slices.Clone(goldenRows), fstabRow{"/dev/sdc1", "/mnt/backup", "ext4", []string{"rw", "user"}})
	for _, c := range []struct {
		name  string
		rows  []fstabRow
		steps []mountStep
	}{
		{"direct mount(2) of the ro cdrom row mounts it ro", goldenRows, []mountStep{
			{user: "alice", direct: cdrom}, {user: "root", write: "/cdrom/f"}}},
		{"-o sync keeps the row's ro", goldenRows, []mountStep{run("alice", userspace.BinMount, "-o", "sync", "/cdrom")}},
		{"anyone unmounts root's mount under a users row", goldenRows, []mountStep{
			run("root", userspace.BinMount, "/dev/sdb1", "/media/usb"), run("bob", userspace.BinUmount, "/media/usb")}},
		{"no unmount once the row is gone", goldenRows, []mountStep{
			run("alice", userspace.BinMount, "/dev/cdrom", "/cdrom"), {dropRow: "/cdrom"},
			run("alice", userspace.BinUmount, "/cdrom")}},
		{"only the mounter unmounts a FUSE mount", goldenRows, []mountStep{
			run("alice", userspace.BinFusermount, "/home/alice"),
			run("bob", userspace.BinFusermount, "-u", "/home/alice"),
			run("alice", userspace.BinFusermount, "-u", "/home/alice")}},
		{"a later row of a pair does not count", userBackup, []mountStep{
			run("alice", userspace.BinMount, "/dev/sdc1", "/mnt/backup"),
			{user: "alice", direct: &fstabRow{dev: "/dev/sdc1", point: "/mnt/backup", fstype: "ext4"}}}},
	} {
		t.Run(c.name, func(t *testing.T) { checkCase(t, "fixed fstab", c.rows, c.steps) })
	}

	for seed := int64(1); seed <= 6; seed++ {
		rows := genFstab(rand.New(rand.NewSource(seed)))
		for _, p := range mountPairs {
			mount := run("alice", userspace.BinMount, p.dev, p.point)
			for _, c := range []struct {
				name  string
				steps []mountStep
			}{
				{"mount", []mountStep{mount}},
				{"mount -o sync by point", []mountStep{run("alice", userspace.BinMount, "-o", "sync,nosuid", p.point)}},
				{"mount -o suid", []mountStep{run("alice", userspace.BinMount, "-o", "suid", p.dev, p.point)}},
				{"mount -t ext2", []mountStep{run("alice", userspace.BinMount, "-t", "ext2", p.dev, p.point)}},
				{"mount(2)", []mountStep{{user: "alice", direct: &fstabRow{dev: p.dev, point: p.point, fstype: "auto"}}}},
				{"mount(2) -o sync", []mountStep{{user: "alice", direct: &fstabRow{dev: p.dev, point: p.point, fstype: p.fstype, opts: []string{"sync"}}}}},
				{"umount by the mounter and another user", []mountStep{mount,
					run("bob", userspace.BinUmount, p.point), run("alice", userspace.BinUmount, p.point)}},
				{"eject by another user and the mounter", []mountStep{mount,
					run("bob", userspace.BinEject, p.dev), run("alice", userspace.BinEject, p.dev)}},
				{"root's mount", []mountStep{run("root", userspace.BinMount, p.dev, p.point),
					run("alice", userspace.BinUmount, p.point), run("bob", userspace.BinEject, p.dev)}},
				{"row removed after the mount", []mountStep{mount, {dropRow: p.point},
					run("alice", userspace.BinUmount, p.point)}},
			} {
				checkCase(t, fmt.Sprintf("seed %d, %s %s", seed, p.point, c.name), rows, c.steps)
			}
		}
	}
}
