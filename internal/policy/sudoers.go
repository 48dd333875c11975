package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// SudoRule is one authorization line of /etc/sudoers:
//
//	user HOST = (runas-list) [NOPASSWD:] command-list
//
// The user may be a username, a %group, an alias, or ALL. Protego extends
// the same grammar to express the policies of su, sudoedit, newgrp, dbus,
// and policykit (§4.3), so each rule also records which utility family it
// governs via the comment-free grammar below.
type SudoRule struct {
	// User is the requesting principal: "alice", "%wheel", "ADMINS"
	// (alias), or "ALL".
	User string
	// Host is matched against the local hostname; almost always "ALL".
	Host string
	// RunAs lists target users the rule delegates ("root", "alice",
	// "ALL"). An empty list means root only, matching sudo's default.
	RunAs []string
	// NoPasswd disables the recent-authentication requirement.
	NoPasswd bool
	// SetEnv permits environment inheritance across the transition.
	SetEnv bool
	// Commands lists permitted command paths, possibly with arguments
	// ("ALL" permits any command).
	Commands []string
}

// Sudoers is the parsed delegation policy.
type Sudoers struct {
	Rules        []SudoRule
	UserAliases  map[string][]string
	CmndAliases  map[string][]string
	RunAsAliases map[string][]string
	// EnvKeep lists environment variables preserved across delegated
	// transitions; everything else is sanitized.
	EnvKeep []string
	// TimestampTimeout is the authentication recency window (sudo's
	// default of 5 minutes).
	TimestampTimeout time.Duration
}

// DefaultTimestampTimeout is sudo's classic 5-minute window (§4.3: "sudo
// only checks the password if a password has not been entered on the
// terminal in the last 5 minutes").
const DefaultTimestampTimeout = 5 * time.Minute

// ParseSudoers parses /etc/sudoers content. The grammar supports Defaults
// (env_keep, timestamp_timeout), User_Alias / Cmnd_Alias / Runas_Alias
// definitions, and authorization rules. Line continuations with '\' are
// honored. A parse error aborts the whole file: a half-applied delegation
// policy is worse than none.
func ParseSudoers(data string) (*Sudoers, error) {
	s := &Sudoers{
		UserAliases:      make(map[string][]string),
		CmndAliases:      make(map[string][]string),
		RunAsAliases:     make(map[string][]string),
		TimestampTimeout: DefaultTimestampTimeout,
		EnvKeep:          []string{"TERM", "LANG", "HOME", "PATH"},
	}
	// Join continuation lines.
	raw := strings.ReplaceAll(data, "\\\n", " ")
	for lineNo, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "Defaults"):
			if err := s.parseDefaults(strings.TrimSpace(strings.TrimPrefix(line, "Defaults"))); err != nil {
				return nil, fmt.Errorf("sudoers line %d: %v", lineNo+1, err)
			}
		case strings.HasPrefix(line, "User_Alias"):
			if err := parseAlias(line, "User_Alias", s.UserAliases); err != nil {
				return nil, fmt.Errorf("sudoers line %d: %v", lineNo+1, err)
			}
		case strings.HasPrefix(line, "Cmnd_Alias"):
			if err := parseAlias(line, "Cmnd_Alias", s.CmndAliases); err != nil {
				return nil, fmt.Errorf("sudoers line %d: %v", lineNo+1, err)
			}
		case strings.HasPrefix(line, "Runas_Alias"):
			if err := parseAlias(line, "Runas_Alias", s.RunAsAliases); err != nil {
				return nil, fmt.Errorf("sudoers line %d: %v", lineNo+1, err)
			}
		default:
			rule, err := parseRule(line)
			if err != nil {
				return nil, fmt.Errorf("sudoers line %d: %v", lineNo+1, err)
			}
			s.Rules = append(s.Rules, rule)
		}
	}
	return s, nil
}

// String renders the policy as sudoers text that ParseSudoers reads back
// to an equal policy: the timestamp_timeout and env_keep defaults, the
// alias definitions in name order, then the rules in order.
func (s *Sudoers) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Defaults timestamp_timeout = %s\n", strconv.FormatFloat(s.TimestampTimeout.Minutes(), 'g', -1, 64))
	fmt.Fprintf(&b, "Defaults env_keep = \"%s\"\n", strings.Join(s.EnvKeep, " "))
	for _, a := range []struct {
		keyword string
		aliases map[string][]string
	}{{"User_Alias", s.UserAliases}, {"Runas_Alias", s.RunAsAliases}, {"Cmnd_Alias", s.CmndAliases}} {
		names := make([]string, 0, len(a.aliases))
		for name := range a.aliases {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s = %s\n", a.keyword, name, strings.Join(a.aliases[name], ", "))
		}
	}
	for i := range s.Rules {
		r := &s.Rules[i]
		fmt.Fprintf(&b, "%s %s = (%s) ", r.User, r.Host, strings.Join(r.RunAs, ", "))
		if r.NoPasswd {
			b.WriteString("NOPASSWD: ")
		}
		if r.SetEnv {
			b.WriteString("SETENV: ")
		}
		b.WriteString(strings.Join(r.Commands, ", "))
		b.WriteByte('\n')
	}
	return b.String()
}

func (s *Sudoers) parseDefaults(rest string) error {
	switch {
	case strings.HasPrefix(rest, "env_keep"):
		eq := strings.IndexAny(rest, "=")
		if eq < 0 {
			return fmt.Errorf("bad env_keep: %q", rest)
		}
		val := strings.Trim(strings.TrimSpace(rest[eq+1:]), `"`)
		add := strings.HasSuffix(strings.TrimSpace(rest[:eq]), "+")
		vars := strings.Fields(val)
		if add {
			s.EnvKeep = append(s.EnvKeep, vars...)
		} else {
			s.EnvKeep = vars
		}
		return nil
	case strings.HasPrefix(rest, "timestamp_timeout"):
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("bad timestamp_timeout: %q", rest)
		}
		minutes, err := strconv.ParseFloat(strings.TrimSpace(rest[eq+1:]), 64)
		if err != nil {
			return fmt.Errorf("bad timestamp_timeout value: %v", err)
		}
		s.TimestampTimeout = time.Duration(minutes * float64(time.Minute))
		return nil
	default:
		// Unknown Defaults directives are tolerated (sudo has dozens).
		return nil
	}
}

func parseAlias(line, keyword string, into map[string][]string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, keyword))
	eq := strings.IndexByte(rest, '=')
	if eq < 0 {
		return fmt.Errorf("bad %s: %q", keyword, line)
	}
	name := strings.TrimSpace(rest[:eq])
	if name == "" || name != strings.ToUpper(name) {
		return fmt.Errorf("%s name must be upper case: %q", keyword, name)
	}
	var members []string
	for _, m := range strings.Split(rest[eq+1:], ",") {
		m = strings.TrimSpace(m)
		if m != "" {
			members = append(members, m)
		}
	}
	if len(members) == 0 {
		return fmt.Errorf("%s %s has no members", keyword, name)
	}
	into[name] = members
	return nil
}

// parseRule parses "user host = (runas) [NOPASSWD:] [SETENV:] cmd, cmd".
func parseRule(line string) (SudoRule, error) {
	var rule SudoRule
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return rule, fmt.Errorf("missing '=': %q", line)
	}
	left := strings.Fields(line[:eq])
	if len(left) != 2 {
		return rule, fmt.Errorf("expected 'user host' before '=': %q", line)
	}
	rule.User, rule.Host = left[0], left[1]

	rest := strings.TrimSpace(line[eq+1:])
	if strings.HasPrefix(rest, "(") {
		close := strings.IndexByte(rest, ')')
		if close < 0 {
			return rule, fmt.Errorf("unclosed runas list: %q", line)
		}
		for _, r := range strings.Split(rest[1:close], ",") {
			r = strings.TrimSpace(r)
			if r != "" {
				rule.RunAs = append(rule.RunAs, r)
			}
		}
		rest = strings.TrimSpace(rest[close+1:])
	}
	if len(rule.RunAs) == 0 {
		rule.RunAs = []string{"root"}
	}
	for {
		switch {
		case strings.HasPrefix(rest, "NOPASSWD:"):
			rule.NoPasswd = true
			rest = strings.TrimSpace(strings.TrimPrefix(rest, "NOPASSWD:"))
		case strings.HasPrefix(rest, "PASSWD:"):
			rule.NoPasswd = false
			rest = strings.TrimSpace(strings.TrimPrefix(rest, "PASSWD:"))
		case strings.HasPrefix(rest, "SETENV:"):
			rule.SetEnv = true
			rest = strings.TrimSpace(strings.TrimPrefix(rest, "SETENV:"))
		default:
			goto commands
		}
	}
commands:
	for _, c := range strings.Split(rest, ",") {
		c = strings.TrimSpace(c)
		if c != "" {
			rule.Commands = append(rule.Commands, c)
		}
	}
	if len(rule.Commands) == 0 {
		return rule, fmt.Errorf("rule has no commands: %q", line)
	}
	return rule, nil
}

// expand walks name through the alias table, following nested aliases,
// and reports whether match holds for any terminal member; a name that is
// no alias is its own only member. The walk stops at the first match and
// allocates only when it expands an alias. A seen set breaks alias cycles
// (Cmnd_Alias A = B; B = A): each alias is expanded at most once per
// lookup, so a cyclic definition degrades to its reachable terminal
// members instead of recursing without bound. (Found by the vulngen
// misconfiguration fuzzer: the previous version only skipped
// self-references, so a two-alias cycle written into /etc/sudoers would
// overflow the stack when the monitoring daemon synced the delegation
// policy — a config-triggered kernel-side crash.)
func expand(name string, aliases map[string][]string, match func(string) bool) bool {
	return expandSeen(name, aliases, nil, match)
}

func expandSeen(name string, aliases map[string][]string, seen map[string]bool, match func(string) bool) bool {
	members, ok := aliases[name]
	if !ok {
		return match(name)
	}
	if seen == nil {
		seen = make(map[string]bool, 4)
	}
	seen[name] = true
	for _, m := range members {
		if seen[m] {
			continue
		}
		if expandSeen(m, aliases, seen, match) {
			return true
		}
	}
	return false
}

// userMatches reports whether the rule's User field covers the requesting
// principal.
func (s *Sudoers) userMatches(ruleUser, user string, groups []string) bool {
	return expand(ruleUser, s.UserAliases, func(u string) bool {
		if u == "ALL" || u == user {
			return true
		}
		if g, ok := strings.CutPrefix(u, "%"); ok {
			for _, have := range groups {
				if have == g {
					return true
				}
			}
		}
		return false
	})
}

// runasMatches reports whether the rule delegates to target.
func (s *Sudoers) runasMatches(rule *SudoRule, target string) bool {
	for _, r := range rule.RunAs {
		if expand(r, s.RunAsAliases, func(rr string) bool { return rr == "ALL" || rr == target }) {
			return true
		}
	}
	return false
}

// commandMatches reports whether the rule permits cmd (an absolute path).
func (s *Sudoers) commandMatches(rule *SudoRule, cmd string) bool {
	for _, c := range rule.Commands {
		if expand(c, s.CmndAliases, func(cc string) bool {
			if cc == "ALL" {
				return true
			}
			// A command spec may carry arguments; the path is the
			// first token.
			path := firstField(cc)
			// Directory specs ("/usr/bin/") permit anything inside.
			return path == cmd || strings.HasSuffix(path, "/") && strings.HasPrefix(cmd, path)
		}) {
			return true
		}
	}
	return false
}

// firstField returns the first whitespace-separated token of s, as
// strings.Fields(s)[0] would, without allocating.
func firstField(s string) string {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i]
	}
	return s
}

// Grant summarizes what a delegation lookup authorizes.
type Grant struct {
	Rule *SudoRule
	// NoPasswd reports that authentication recency is not required.
	NoPasswd bool
}

// LookupCommand finds the rule that decides whether user (with groups)
// may run cmd as target. As in sudoers(5), when several rules match, the
// last one wins. cmd "ALL" matches only the rules that permit every
// command.
func (s *Sudoers) LookupCommand(user string, groups []string, target, cmd string) (Grant, bool) {
	rule := s.lastMatch(user, groups, target, cmd, false)
	if rule == nil {
		return Grant{}, false
	}
	return Grant{Rule: rule, NoPasswd: rule.NoPasswd}, true
}

// LookupTransition reports whether some rule delegates (user → target),
// whatever its commands: the question Protego's setuid hook asks before
// it defers the transition to exec. It names no rule, because which rule
// decides, and so whether the caller must authenticate, depends on the
// command.
func (s *Sudoers) LookupTransition(user string, groups []string, target string) bool {
	return s.lastMatch(user, groups, target, "", true) != nil
}

// lastMatch is the one rule scan: the last rule that covers user, runs as
// target and, unless anyCmd, permits cmd; nil when none does.
func (s *Sudoers) lastMatch(user string, groups []string, target, cmd string, anyCmd bool) *SudoRule {
	for i := len(s.Rules) - 1; i >= 0; i-- {
		rule := &s.Rules[i]
		if s.userMatches(rule.User, user, groups) && s.runasMatches(rule, target) &&
			(anyCmd || s.commandMatches(rule, cmd)) {
			return rule
		}
	}
	return nil
}

// SanitizeEnv filters env down to the EnvKeep whitelist (unless the
// matched rule carries SETENV). The returned map is fresh.
func (s *Sudoers) SanitizeEnv(env map[string]string, g Grant) map[string]string {
	if g.Rule != nil && g.Rule.SetEnv {
		out := make(map[string]string, len(env))
		for k, v := range env {
			out[k] = v
		}
		return out
	}
	out := make(map[string]string, len(s.EnvKeep))
	for _, k := range s.EnvKeep {
		if v, ok := env[k]; ok {
			out[k] = v
		}
	}
	return out
}
