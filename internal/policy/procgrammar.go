package policy

import (
	"fmt"
	"strings"
)

// ProcCommand is one line of the simple grammar Protego accepts on its
// /proc configuration files (the paper: "Protego provides ... files in
// /proc for configuration inputs using a simple grammar"). The verbs are:
//
//	add <args...>   # insert a policy entry
//	del <args...>   # remove a matching entry
//	clear           # remove all entries
//
// Each policy file interprets the argument fields with its own schema (a
// mount whitelist row, a bind table row, a sudoers-like delegation row).
type ProcCommand struct {
	Verb string
	Args []string
}

// ParseProcCommands tokenizes a /proc write into commands, one per line.
func ParseProcCommands(data []byte) ([]ProcCommand, error) {
	var cmds []ProcCommand
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		verb := strings.ToLower(fields[0])
		switch verb {
		case "add", "del":
			if len(fields) < 2 {
				return nil, fmt.Errorf("proc line %d: %s needs arguments", lineNo+1, verb)
			}
		case "clear":
			if len(fields) != 1 {
				return nil, fmt.Errorf("proc line %d: clear takes no arguments", lineNo+1)
			}
		default:
			return nil, fmt.Errorf("proc line %d: unknown verb %q", lineNo+1, fields[0])
		}
		cmds = append(cmds, ProcCommand{Verb: verb, Args: fields[1:]})
	}
	return cmds, nil
}
