// Command protego-sim is a scripted shell over the simulated machine. It
// boots a baseline-Linux or Protego image and executes simple commands
// from stdin (or -c), so the two systems can be explored interactively:
//
//	$ protego-sim -mode protego
//	> passwd-for alice alicepw        # answer future prompts for alice
//	> as alice /bin/mount /dev/cdrom /cdrom
//	/dev/cdrom mounted on /cdrom
//	> mounts
//	> as alice /usr/bin/sudo /usr/bin/id
//	> status                          # cat /proc/protego/status
//	> audit
//
// Commands:
//
//	as <user> <binary> [args...]   run a binary as a user
//	passwd-for <user> <password>   set the prompt answer for a user
//	mounts | routes | audit        inspect kernel state
//	status                         read /proc/protego/status
//	cat <path>                     read a file as root
//	help | exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"protego/internal/kernel"
	"protego/internal/vfs"
	"protego/internal/world"
)

func main() {
	modeName := flag.String("mode", "protego", "machine mode: linux or protego")
	script := flag.String("c", "", "run semicolon-separated commands and exit")
	flag.Parse()

	mode, err := kernel.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "protego-sim: -mode: %v\n", err)
		os.Exit(2)
	}
	m, err := world.Build(world.Options{Mode: mode})
	if err != nil {
		fmt.Fprintf(os.Stderr, "protego-sim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("booted %s machine (host %s)\n", mode, m.K.Net.HostIP())

	passwords := map[string]string{}
	runLine := func(line string) {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return
		}
		switch fields[0] {
		case "help":
			fmt.Println("commands: as, passwd-for, mounts, routes, audit, status, cat, exit")
		case "exit", "quit":
			os.Exit(0)
		case "passwd-for":
			if len(fields) != 3 {
				fmt.Println("usage: passwd-for <user> <password>")
				return
			}
			passwords[fields[1]] = fields[2]
		case "as":
			if len(fields) < 3 {
				fmt.Println("usage: as <user> <binary> [args...]")
				return
			}
			sess, err := m.Session(fields[1])
			if err != nil {
				fmt.Printf("no such user %q\n", fields[1])
				return
			}
			asker := func(string) string { return passwords[fields[1]] }
			code, out, errOut, _ := m.Run(sess, fields[2:], asker)
			fmt.Print(out)
			if errOut != "" {
				fmt.Print(errOut)
			}
			if code != 0 {
				fmt.Printf("(exit %d)\n", code)
			}
		case "mounts":
			fmt.Print(m.K.FS.FormatMtab())
		case "routes":
			for _, r := range m.K.Net.Routes() {
				fmt.Println(r)
			}
		case "audit":
			for _, line := range m.K.AuditLog() {
				fmt.Println(line)
			}
		case "status":
			data, err := m.K.FS.ReadFile(vfs.RootCred, "/proc/protego/status")
			if err != nil {
				fmt.Printf("no status: %v (linux mode?)\n", err)
				return
			}
			fmt.Print(string(data))
		case "cat":
			if len(fields) != 2 {
				fmt.Println("usage: cat <path>")
				return
			}
			// Read through the kernel's syscall path (not the raw VFS) so
			// synthetic files like /proc/trace work and the read itself
			// shows up in the trace.
			root, err := m.Session("root")
			if err != nil {
				fmt.Printf("cat: %v\n", err)
				return
			}
			data, err := m.K.ReadFile(root, fields[1])
			if err != nil {
				fmt.Printf("cat: %v\n", err)
				return
			}
			fmt.Print(string(data))
		default:
			fmt.Printf("unknown command %q (try help)\n", fields[0])
		}
	}

	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			runLine(strings.TrimSpace(line))
		}
		return
	}
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		runLine(scanner.Text())
		fmt.Print("> ")
	}
}
