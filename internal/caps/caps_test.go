package caps

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCapString(t *testing.T) {
	if CAP_SYS_ADMIN.String() != "CAP_SYS_ADMIN" {
		t.Fatalf("got %q", CAP_SYS_ADMIN.String())
	}
	if Cap(200).String() != "CAP_200" {
		t.Fatalf("got %q", Cap(200).String())
	}
}

func TestSetOperations(t *testing.T) {
	s := Set(1)<<CAP_SETUID | Set(1)<<CAP_SETGID
	if !s.Has(CAP_SETUID) || s.Has(CAP_SYS_ADMIN) {
		t.Fatal("membership wrong")
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	if !Empty.IsEmpty() || Full().IsEmpty() {
		t.Fatal("emptiness wrong")
	}
	if Full().Count() != NumCaps {
		t.Fatalf("full count = %d", Full().Count())
	}
}

func TestSetString(t *testing.T) {
	if Empty.String() != "(none)" {
		t.Fatalf("empty: %q", Empty.String())
	}
	if Full().String() != "(all)" {
		t.Fatalf("full: %q", Full().String())
	}
	s := (Set(1)<<CAP_SETUID | Set(1)<<CAP_NET_RAW).String()
	if !strings.Contains(s, "CAP_SETUID") || !strings.Contains(s, "CAP_NET_RAW") {
		t.Fatalf("set: %q", s)
	}
}

func TestListSorted(t *testing.T) {
	list := (Set(1)<<CAP_SYS_ADMIN | Set(1)<<CAP_CHOWN | Set(1)<<CAP_NET_RAW).List()
	if len(list) != 3 || list[0] != CAP_CHOWN || list[2] != CAP_SYS_ADMIN {
		t.Fatalf("list: %v", list)
	}
}

// Properties: List names exactly the set's members, and Count its
// length.
func TestSetProperties(t *testing.T) {
	f := func(bits uint64) bool {
		s := Set(bits) & Full()
		var back Set
		for _, c := range s.List() {
			if !s.Has(c) {
				return false
			}
			back |= 1 << c
		}
		return back == s && s.Count() == len(s.List())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
