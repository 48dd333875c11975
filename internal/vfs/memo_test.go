package vfs_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"protego/internal/kernel"
	"protego/internal/policy"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// countingKind is a kind whose parser counts its calls in *calls and
// tags the text it parses; the text "bad" is a parse error.
func countingKind(tag string, calls *int) *vfs.MemoKind[string] {
	return vfs.NewMemoKind(func(s string) (string, error) {
		*calls++
		if s == "bad" {
			return "", errors.New(tag + ": bad")
		}
		return tag + s, nil
	})
}

// TestMemo is the parse memo's contract, one rule per row.
func TestMemo(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"equal bytes give the identical parse", func(t *testing.T) {
			m := new(vfs.Memo)
			text := []byte("%wheel ALL = (root) NOPASSWD: /bin/ls\n")
			a, errA := policy.MemoSudoers(m, text)
			b, errB := policy.MemoSudoers(m, slices.Clone(text))
			if errA != nil || errB != nil || a != b {
				t.Fatalf("two parses of equal bytes: %p, %p (%v, %v)", a, b, errA, errB)
			}
		}},
		{"an edited file gets a fresh parse", func(t *testing.T) {
			fs := vfs.New()
			parse := func() []policy.FstabEntry {
				data, err := fs.ReadFile(vfs.RootCred, "/fstab")
				if err != nil {
					t.Fatal(err)
				}
				entries, err := policy.MemoFstab(fs.Memo(), data)
				if err != nil {
					t.Fatal(err)
				}
				return entries
			}
			row := "/dev/cdrom /cdrom iso9660 ro,user 0 0\n"
			if err := fs.WriteFile(vfs.RootCred, "/fstab", []byte(row), 0o644, 0, 0); err != nil {
				t.Fatal(err)
			}
			before := parse()
			if err := fs.AppendFile(vfs.RootCred, "/fstab", []byte("/dev/sdb1 /usb vfat rw,users 0 0\n")); err != nil {
				t.Fatal(err)
			}
			if after := parse(); len(before) != 1 || len(after) != 2 || after[1].Device != "/dev/sdb1" {
				t.Fatalf("before the edit %v, after it %v", before, after)
			}
		}},
		{"a parse error comes back for the same bytes", func(t *testing.T) {
			m, calls := new(vfs.Memo), 0
			k := countingKind("k", &calls)
			_, err1 := k.Parse(m, []byte("bad"))
			_, err2 := k.Parse(m, []byte("bad"))
			if err1 == nil || err1 != err2 || calls != 1 {
				t.Fatalf("errors %v, %v after %d parses", err1, err2, calls)
			}
		}},
		{"the kind keeps two parsers of equal bytes apart", func(t *testing.T) {
			m, calls := new(vfs.Memo), 0
			a, b := countingKind("a:", &calls), countingKind("b:", &calls)
			va, _ := a.Parse(m, []byte("x"))
			vb, _ := b.Parse(m, []byte("x"))
			if va != "a:x" || vb != "b:x" || calls != 2 {
				t.Fatalf("a gave %q, b gave %q, after %d parses", va, vb, calls)
			}
		}},
		{"a full kind is dropped and answers stay correct", func(t *testing.T) {
			m, calls, otherCalls := new(vfs.Memo), 0, 0
			k, other := countingKind("k", &calls), countingKind("o", &otherCalls)
			other.Parse(m, []byte("kept"))
			const contents = 200 // past the bound, more than once
			parse := func(i int) {
				if v, err := k.Parse(m, []byte(fmt.Sprint(i))); err != nil || v != fmt.Sprint("k", i) {
					t.Fatalf("content %d: %q, %v", i, v, err)
				}
			}
			for i := 0; i < contents; i++ {
				parse(i)
			}
			if parse(contents - 1); calls != contents {
				t.Fatal("the newest content was dropped")
			}
			if parse(0); calls != contents+1 {
				t.Fatal("the oldest content outlived the bound")
			}
			for i := contents - 1; i >= 0; i-- {
				parse(i)
			}
			if other.Parse(m, []byte("kept")); otherCalls != 1 {
				t.Fatal("a full kind dropped another kind's entry")
			}
		}},
		{"a clone sees its image's entries and keeps its own", func(t *testing.T) {
			calls := 0
			k := countingKind("k", &calls)
			img := vfs.New()
			k.Parse(img.Memo(), []byte("image"))
			img.Freeze()
			a, b := img.Clone(), img.Clone()
			if k.Parse(a.Memo(), []byte("image")); calls != 1 {
				t.Fatal("a clone re-parsed its image's content")
			}
			k.Parse(a.Memo(), []byte("a's own"))
			// The sibling goes first: probing the image stores "a's own"
			// in the image's memo, which every clone then reads.
			for _, probe := range []struct {
				name string
				fs   *vfs.FS
			}{{"a sibling clone", b}, {"the image", img}} {
				before := calls
				if k.Parse(probe.fs.Memo(), []byte("a's own")); calls != before+1 {
					t.Fatalf("%s saw an entry a clone added", probe.name)
				}
			}
		}},
		{"a hit allocates nothing", func(t *testing.T) {
			img := vfs.New()
			data := []byte("/dev/cdrom /cdrom iso9660 ro,user 0 0\n")
			policy.MemoFstab(img.Memo(), data)
			img.Freeze()
			clone := img.Clone()
			for name, m := range map[string]*vfs.Memo{"own entry": img.Memo(), "the image's entry": clone.Memo()} {
				if a := testing.AllocsPerRun(100, func() { policy.MemoFstab(m, data) }); a != 0 {
					t.Errorf("%s: %v allocs per hit, want 0", name, a)
				}
			}
		}},
		{"mount leaves the memoized fstab entry's options as they were", func(t *testing.T) {
			for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeProtego} {
				img, err := world.Golden(mode)
				if err != nil {
					t.Fatal(err)
				}
				m, err := img.Clone()
				if err != nil {
					t.Fatal(err)
				}
				alice, err := m.Session("alice")
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					for _, argv := range [][]string{{userspace.BinMount, "/cdrom"}, {userspace.BinUmount, "/cdrom"}} {
						if code, _, stderr, err := m.Run(alice, argv, nil); code != 0 || err != nil {
							t.Fatalf("%s: %v: %d %v %q", mode, argv, code, err, stderr)
						}
					}
				}
				data, err := m.K.FS.ReadFile(vfs.RootCred, "/etc/fstab")
				if err != nil {
					t.Fatal(err)
				}
				entries, err := policy.MemoFstab(m.K.FS.Memo(), data)
				if err != nil {
					t.Fatal(err)
				}
				for i := range entries {
					if e := &entries[i]; e.MountPoint == "/cdrom" && !slices.Equal(e.Options, []string{"ro", "user", "noauto"}) {
						t.Fatalf("%s: /cdrom options now %v", mode, e.Options)
					}
				}
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
