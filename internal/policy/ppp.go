package policy

import (
	"fmt"
	"strings"
)

// PPPOptions is the policy mined from /etc/ppp/options (§4.1.2): which
// modem session parameters unprivileged users may set, whether they may
// install routes over a ppp link (subject to the kernel's conflict check),
// and which modem devices they may attach.
type PPPOptions struct {
	// SafeParams are session parameters configurable without privilege
	// (compression, congestion control, mtu, ...).
	SafeParams []string
	// AllowUserRoutes permits unprivileged route additions over ppp
	// links when the address range was not previously reachable.
	AllowUserRoutes bool
	// Devices lists modem device paths users may attach.
	Devices []string
}

// ParamSafe reports whether name may be configured by an unprivileged user.
func (o *PPPOptions) ParamSafe(name string) bool {
	for _, p := range o.SafeParams {
		if p == name {
			return true
		}
	}
	return false
}

// DeviceAllowed reports whether the modem device may be attached by users.
func (o *PPPOptions) DeviceAllowed(path string) bool {
	for _, d := range o.Devices {
		if d == path {
			return true
		}
	}
	return false
}

// DefaultPPPOptions returns the paper's defaults: only safe session
// parameters, no user routes, no devices.
func DefaultPPPOptions() *PPPOptions {
	return &PPPOptions{
		SafeParams: []string{"bsdcomp", "deflate", "vj-max-slots", "mtu", "mru", "asyncmap", "lcp-echo-interval"},
	}
}

// ParsePPPOptions parses /etc/ppp/options. Recognized directives:
//
//	safe-param <name>       # add a user-settable session parameter, once
//	user-routes             # allow non-conflicting user routes
//	device <path>           # whitelist a modem device for users
//
// plus the standard pppd option lines, which are ignored for policy
// purposes but must be syntactically plausible (a bare word or word+value).
func ParsePPPOptions(data string) (*PPPOptions, error) {
	o := DefaultPPPOptions()
	for lineNo, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "safe-param":
			if len(fields) != 2 {
				return nil, fmt.Errorf("ppp options line %d: safe-param needs a name", lineNo+1)
			}
			if !o.ParamSafe(fields[1]) {
				o.SafeParams = append(o.SafeParams, fields[1])
			}
		case "user-routes":
			o.AllowUserRoutes = true
		case "device":
			if len(fields) != 2 || !strings.HasPrefix(fields[1], "/") {
				return nil, fmt.Errorf("ppp options line %d: device needs an absolute path", lineNo+1)
			}
			o.Devices = append(o.Devices, fields[1])
		default:
			if len(fields) > 2 {
				return nil, fmt.Errorf("ppp options line %d: unrecognized directive %q", lineNo+1, line)
			}
			// Standard pppd option; not policy-relevant.
		}
	}
	return o, nil
}
