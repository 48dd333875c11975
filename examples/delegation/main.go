// Delegation demonstrates §4.3 on a Protego machine: sudo-to-root with
// kernel-enforced sudoers rules and authentication recency, the deferred
// setuid-on-exec mechanism for command-restricted rules, lateral
// user-to-user delegation, su with target-password authorization, and
// newgrp with password-protected groups — all without a single setuid
// binary. It ends with the live policy loop of Figure 1: a rule dropped
// into /etc/sudoers.d reaches the kernel through the monitoring daemon.
package main

import (
	"fmt"
	"log"
	"time"

	"protego/internal/monitord"
	"protego/internal/userspace"
	"protego/internal/vfs"
	"protego/internal/world"
)

func main() {
	m, err := world.BuildProtego()
	if err != nil {
		log.Fatal(err)
	}

	run := func(user string, password string, argv ...string) {
		sess, err := m.Session(user)
		if err != nil {
			log.Fatal(err)
		}
		var asker func(string) string
		if password != "" {
			asker = world.AnswerWith(password)
		}
		code, out, errOut, _ := m.Run(sess, argv, asker)
		fmt.Printf("$ %s (as %s) -> exit %d\n%s%s\n", argv[0], user, code, out, errOut)
	}

	fmt.Println("--- sudo to root: 'alice ALL = (root) ALL', password required ---")
	run("alice", world.AlicePassword, userspace.BinSudo, "/usr/bin/id")

	fmt.Println("--- the same with the wrong password ---")
	run("alice", "wrong-password", userspace.BinSudo, "/usr/bin/id")

	fmt.Println("--- NOPASSWD, command-restricted: '%wheel = NOPASSWD: /bin/ls' ---")
	fmt.Println("    charlie may run ls... (setuid defers, exec validates /bin/ls)")
	run("charlie", "", userspace.BinSudo, "/bin/ls", "/tmp")
	fmt.Println("    ...but nothing else (EPERM at exec time, §4.3)")
	run("charlie", "", userspace.BinSudo, "/usr/bin/id")

	fmt.Println("--- lateral delegation: bob prints with alice's credentials ---")
	bob, _ := m.Session("bob")
	if err := m.K.WriteFile(bob, "/tmp/report.txt", []byte("quarterly report")); err != nil {
		log.Fatal(err)
	}
	run("bob", world.BobPassword, userspace.BinSudo, "-u", "alice", userspace.BinLpr, "/tmp/report.txt")

	fmt.Println("--- su: the target's password is the authorization ---")
	run("charlie", world.RootPassword, userspace.BinSu, "root", "-c", "/usr/bin/id")

	fmt.Println("--- newgrp: password-protected group 'ops' ---")
	run("charlie", world.OpsGroupPassword, userspace.BinNewgrp, "ops")

	fmt.Println("--- kernel view of what just happened ---")
	for _, line := range m.K.AuditLog() {
		fmt.Println("audit:", line)
	}
	fmt.Printf("LSM stats: grants=%d defers=%d denials=%d\n",
		m.Protego.Stats.SetuidGrants.Load(), m.Protego.Stats.SetuidDefers.Load(), m.Protego.Stats.SetuidDenials.Load())

	fmt.Println("--- live policy: the administrator drops a rule into /etc/sudoers.d ---")
	fmt.Println("    'charlie ALL = (alice) NOPASSWD: /usr/bin/lpr'; monitord pushes it to the kernel")
	stop := make(chan struct{})
	defer close(stop)
	m.Monitor.Start(stop)
	synced := m.Monitor.SyncCount("delegation")
	rule := []byte("charlie ALL = (alice) NOPASSWD: /usr/bin/lpr\n")
	if err := m.K.FS.WriteFile(vfs.RootCred, monitord.SudoersDir+"/extra", rule, 0o440, 0, 0); err != nil {
		log.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); m.Monitor.SyncCount("delegation") <= synced; {
		if time.Now().After(deadline) {
			log.Fatal("monitord did not sync /etc/sudoers.d")
		}
		time.Sleep(time.Millisecond)
	}
	run("charlie", "", userspace.BinSudo, "-u", "alice", userspace.BinLpr, "/tmp/report.txt")
}
