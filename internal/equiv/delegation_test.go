package equiv

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"protego/internal/kernel"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

// sudoRow is one generated sudoers rule: user ALL = (runas) [NOPASSWD:] cmds.
type sudoRow struct {
	user, runas string
	noPasswd    bool
	cmds        []string
}

func (r sudoRow) String() string {
	tag := ""
	if r.noPasswd {
		tag = "NOPASSWD: "
	}
	return fmt.Sprintf("%s ALL = (%s) %s%s\n", r.user, r.runas, tag, strings.Join(r.cmds, ", "))
}

// The generator's pools. VIEW is the one Cmnd_Alias every main file
// defines; %wheel and %ops are groups of the image (wheel: alice and
// charlie; ops: alice).
var (
	genUsers = []string{"alice", "bob", "charlie", "%wheel", "%ops"}
	genRunas = []string{"root", "alice", "bob", "charlie", "ALL"}
	genCmds  = []string{"ALL", userspace.BinLs, userspace.BinID, userspace.BinLpr, "VIEW"}
	viewCmds = []string{userspace.BinLs, userspace.BinID}
	inGroup  = map[string][]string{"wheel": {"alice", "charlie"}, "ops": {"alice"}}
	password = map[string]string{"alice": world.AlicePassword, "bob": world.BobPassword, "charlie": world.CharliePassword}
)

func genRow(r *rand.Rand) sudoRow {
	row := sudoRow{user: genUsers[r.Intn(len(genUsers))], runas: genRunas[r.Intn(len(genRunas))], noPasswd: r.Intn(2) == 0}
	for n := 1 + r.Intn(2); n > 0; n-- {
		row.cmds = append(row.cmds, genCmds[r.Intn(len(genCmds))])
	}
	return row
}

// genSudoers returns a main file of four rules and a sudoers.d fragment
// of two, and all six rules in the order sudo reads them. The fragment's
// first rule shadows a main-file rule: same user and run-as, the other
// password setting, its own commands.
func genSudoers(r *rand.Rand) (mainFile, fragment string, rows []sudoRow) {
	for i := 0; i < 4; i++ {
		rows = append(rows, genRow(r))
	}
	shadow, shadowed := genRow(r), rows[r.Intn(len(rows))]
	shadow.user, shadow.runas, shadow.noPasswd = shadowed.user, shadowed.runas, !shadowed.noPasswd
	rows = append(rows, shadow, genRow(r))
	var b strings.Builder
	b.WriteString("Cmnd_Alias VIEW = " + strings.Join(viewCmds, ", ") + "\n")
	for _, row := range rows[:4] {
		b.WriteString(row.String())
	}
	return b.String(), rows[4].String() + rows[5].String(), rows
}

// lastMatch is the reference decision: of the rules that cover user,
// target and cmd, the last one read decides (sudoers(5), "User
// specification").
func lastMatch(rows []sudoRow, user, target, cmd string) (sudoRow, bool) {
	covers := func(spec string) bool {
		if g, ok := strings.CutPrefix(spec, "%"); ok {
			for _, member := range inGroup[g] {
				if member == user {
					return true
				}
			}
			return false
		}
		return spec == user
	}
	permits := func(cmds []string) bool {
		for _, c := range cmds {
			if c == "ALL" || c == cmd || c == "VIEW" && (cmd == viewCmds[0] || cmd == viewCmds[1]) {
				return true
			}
		}
		return false
	}
	for i := len(rows) - 1; i >= 0; i-- {
		row := rows[i]
		if covers(row.user) && (row.runas == "ALL" || row.runas == target) && permits(row.cmds) {
			return row, true
		}
	}
	return sudoRow{}, false
}

// sudoOutcome is what one sudo run shows: its exit status and output, and
// how many prompts named the caller and the target.
type sudoOutcome struct {
	code                         int
	stdout                       string
	callerPrompts, targetPrompts int
}

// runSudo runs `sudo -u target cmd...` as user on a golden clone of mode
// whose sudoers are mainFile and fragment (Protego's kernel copy synced by
// monitord). Every prompt is answered with the caller's own password.
func runSudo(t *testing.T, mode kernel.Mode, mainFile, fragment, user, target string, cmd []string) sudoOutcome {
	t.Helper()
	snap, err := world.Golden(mode)
	if err != nil {
		t.Fatal(err)
	}
	m, err := snap.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.FS.WriteFile(vfs.RootCred, "/etc/sudoers", []byte(mainFile), 0o440, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.K.FS.Remove(vfs.RootCred, "/etc/sudoers.d/printing"); err != nil {
		t.Fatal(err)
	}
	if err := addSudoersFragment("/etc/sudoers.d/zz", fragment)(m); err != nil {
		t.Fatal(err)
	}
	sess, err := m.Session(user)
	if err != nil {
		t.Fatal(err)
	}
	var out sudoOutcome
	asker := func(prompt string) string {
		switch {
		case strings.Contains(prompt, "password for "+user+":"):
			out.callerPrompts++
		case strings.Contains(prompt, "password for "+target+":"):
			out.targetPrompts++
		default:
			t.Errorf("%s: unexpected prompt %q", mode, prompt)
		}
		return password[user]
	}
	argv := append([]string{userspace.BinSudo, "-u", target}, cmd...)
	out.code, out.stdout, _, err = m.Run(sess, argv, asker)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDelegationMatchesBaseline runs sudo -u over (user, target, command)
// triples on seeded sudoers files, on both images, and checks each against
// lastMatch. Both images must agree on the exit status, the output and
// the prompts that name the caller. The one expected difference: when
// Protego refuses, its kernel first asks once for the target's password,
// the su fallback of §4.3, which the baseline sudo never offers.
func TestDelegationMatchesBaseline(t *testing.T) {
	users := []string{"alice", "bob", "charlie"}
	targets := []string{"root", "alice", "bob", "charlie"}
	cmds := [][]string{{userspace.BinLs, "/tmp"}, {userspace.BinID}, {userspace.BinLpr, "/etc/motd"}}
	for seed := int64(1); seed <= 8; seed++ {
		mainFile, fragment, rows := genSudoers(rand.New(rand.NewSource(seed)))
		for _, user := range users {
			for _, target := range targets {
				if target == user {
					continue // base policy admits setuid to oneself
				}
				for _, cmd := range cmds {
					want := sudoOutcome{code: 1, targetPrompts: 1}
					if row, ok := lastMatch(rows, user, target, cmd[0]); ok {
						want = sudoOutcome{code: 0}
						if !row.noPasswd {
							want.callerPrompts = 1
						}
					}
					linux := runSudo(t, kernel.ModeLinux, mainFile, fragment, user, target, cmd)
					protego := runSudo(t, kernel.ModeProtego, mainFile, fragment, user, target, cmd)
					if linux.stdout != protego.stdout {
						t.Errorf("seed %d, %s -> %s %s: stdout differs:\n  linux:   %q\n  protego: %q",
							seed, user, target, cmd[0], linux.stdout, protego.stdout)
					}
					linux.stdout, protego.stdout = "", ""
					wantLinux := want
					wantLinux.targetPrompts = 0
					if linux != wantLinux || protego != want {
						t.Errorf("seed %d, %s -> %s %s:\n  linux   %+v, want %+v\n  protego %+v, want %+v\nsudoers:\n%s--- sudoers.d/zz:\n%s",
							seed, user, target, cmd[0], linux, wantLinux, protego, want, mainFile, fragment)
					}
				}
			}
		}
	}
}
