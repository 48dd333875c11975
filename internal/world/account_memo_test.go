package world

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"protego/internal/accountdb"
	"protego/internal/kernel"
	"protego/internal/vfs"
)

// TestAccountMemoConcurrent races the process-wide parse memo of the
// account databases (run it with -race -count=10): eight goroutines, each
// on its own clone, look up users and groups and sort the Members of what
// Groups returned, while two of them keep rewriting their own /etc/passwd
// and /etc/group to more distinct contents than the memo holds. Every
// answer must match the goroutine's own files.
func TestAccountMemoConcurrent(t *testing.T) {
	const (
		workers = 8
		writers = 2
		rounds  = 100 // distinct contents per writer, past the memo's bound
	)
	img, err := Golden(kernel.ModeProtego)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m, err := img.Clone()
		if err != nil {
			t.Fatal(err)
		}
		passwd, err := m.K.FS.ReadFile(vfs.RootCred, accountdb.PasswdFile)
		if err != nil {
			t.Fatal(err)
		}
		group, err := m.K.FS.ReadFile(vfs.RootCred, accountdb.GroupFile)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, m *Machine) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				shell, extra := "/bin/sh", ""
				if w < writers {
					shell = fmt.Sprintf("/bin/sh-w%d-r%d", w, i)
					extra = fmt.Sprintf("w%dr%d:x:%d:alice\n", w, i, 5000+i)
					p := strings.Replace(string(passwd), "/home/alice:/bin/sh", "/home/alice:"+shell, 1)
					if err := m.K.FS.WriteFile(vfs.RootCred, accountdb.PasswdFile, []byte(p), 0o644, 0, 0); err != nil {
						t.Error(err)
						return
					}
					if err := m.K.FS.WriteFile(vfs.RootCred, accountdb.GroupFile, append(group, extra...), 0o644, 0, 0); err != nil {
						t.Error(err)
						return
					}
				}
				if err := checkAccounts(m, shell, extra != "", 5000+i); err != nil {
					t.Errorf("worker %d round %d: %v", w, i, err)
					return
				}
			}
		}(w, m)
	}
	wg.Wait()
}

// checkAccounts compares alice's record, her supplementary gids and the
// group list with the image's, or with a writer's edits: alice's shell,
// and a last group of gid extraGID that lists her.
func checkAccounts(m *Machine, shell string, extra bool, extraGID int) error {
	u, err := m.DB.LookupUser("alice")
	if err != nil || u.Shell != shell {
		return fmt.Errorf("alice = %+v, %v; want shell %s", u, err, shell)
	}
	wantGIDs := []int{GIDWheel, GIDOps}
	if extra {
		wantGIDs = append(wantGIDs, extraGID)
	}
	if gids, err := m.DB.GroupIDsOf("alice"); err != nil || !slices.Equal(gids, wantGIDs) {
		return fmt.Errorf("alice's gids = %v, %v; want %v", gids, err, wantGIDs)
	}
	groups, err := m.DB.Groups()
	if err != nil {
		return err
	}
	for i := range groups {
		sort.Sort(sort.Reverse(sort.StringSlice(groups[i].Members)))
		if groups[i].Name == "users" && strings.Join(groups[i].Members, ",") != "charlie,bob,alice" {
			return fmt.Errorf("users members = %v", groups[i].Members)
		}
	}
	if last := groups[len(groups)-1]; extra != (last.GID == extraGID) {
		return fmt.Errorf("last group = %+v, edited = %v", last, extra)
	}
	return nil
}
