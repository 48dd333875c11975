package policy

import "protego/internal/vfs"

// The legacy policy files are parsed through the memo of the file system
// that holds them: mount(8), the baseline sudo, the monitoring daemon and
// the /proc writers all re-read the same few contents, and each distinct
// one is parsed once. What these return is shared with every other caller
// of the same memo, so it must only be read.
var (
	fstabKind   = vfs.NewMemoKind(ParseFstab)
	sudoersKind = vfs.NewMemoKind(ParseSudoers)
	bindKind    = vfs.NewMemoKind(ParseBind)
	pppKind     = vfs.NewMemoKind(ParsePPPOptions)
)

// MemoFstab is ParseFstab through m.
func MemoFstab(m *vfs.Memo, data []byte) ([]FstabEntry, error) { return fstabKind.Parse(m, data) }

// MemoSudoers is ParseSudoers through m.
func MemoSudoers(m *vfs.Memo, data []byte) (*Sudoers, error) { return sudoersKind.Parse(m, data) }

// MemoBind is ParseBind through m.
func MemoBind(m *vfs.Memo, data []byte) ([]BindEntry, error) { return bindKind.Parse(m, data) }

// MemoPPPOptions is ParsePPPOptions through m.
func MemoPPPOptions(m *vfs.Memo, data []byte) (*PPPOptions, error) { return pppKind.Parse(m, data) }
