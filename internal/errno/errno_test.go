package errno

import (
	"errors"
	"fmt"
	"testing"
)

func TestErrorMessages(t *testing.T) {
	if EPERM.Error() != "operation not permitted" {
		t.Fatalf("EPERM: %q", EPERM.Error())
	}
	if ENOENT.Error() != "no such file or directory" {
		t.Fatalf("ENOENT: %q", ENOENT.Error())
	}
	// Errors without a friendly message fall back to the name.
	if E2BIG.Error() != "E2BIG" {
		t.Fatalf("E2BIG: %q", E2BIG.Error())
	}
	if Errno(9999).Error() != "errno 9999" {
		t.Fatalf("unknown: %q", Errno(9999).Error())
	}
}

func TestName(t *testing.T) {
	if EACCES.Name() != "EACCES" {
		t.Fatalf("name: %q", EACCES.Name())
	}
	if Errno(9999).Name() != "errno(9999)" {
		t.Fatalf("name: %q", Errno(9999).Name())
	}
}

func TestErrorsIs(t *testing.T) {
	var err error = EPERM
	if !errors.Is(err, EPERM) {
		t.Fatal("errors.Is failed on identity")
	}
	if errors.Is(err, EACCES) {
		t.Fatal("errors.Is matched a different errno")
	}
	wrapped := fmt.Errorf("context: %w", EACCES)
	if !errors.Is(wrapped, EACCES) {
		t.Fatal("errors.Is failed through wrapping")
	}
}

func TestOf(t *testing.T) {
	if Of(nil) != 0 {
		t.Fatal("Of(nil)")
	}
	if Of(EPERM) != EPERM {
		t.Fatal("Of(EPERM)")
	}
	if Of(errors.New("other")) != 0 {
		t.Fatal("Of(non-errno)")
	}
}

func TestOfUnwrapsWrappedErrno(t *testing.T) {
	wrapped := fmt.Errorf("mount: %w", EBUSY)
	if Of(wrapped) != EBUSY {
		t.Fatalf("Of should see through %%w wrapping, got %v", Of(wrapped))
	}
	double := fmt.Errorf("outer: %w", wrapped)
	if Of(double) != EBUSY {
		t.Fatalf("Of should unwrap repeatedly, got %v", Of(double))
	}
}

func TestIsHelper(t *testing.T) {
	if !Is(fmt.Errorf("x: %w", EACCES), EACCES) {
		t.Fatal("Is failed through wrapping")
	}
	if Is(nil, EACCES) {
		t.Fatal("Is(nil) matched")
	}
	if Is(EPERM, EACCES) {
		t.Fatal("Is matched a different errno")
	}
}

func TestDistinctNames(t *testing.T) {
	seen := map[string]Errno{}
	for e := range names {
		n := e.Name()
		if prev, ok := seen[n]; ok {
			t.Fatalf("duplicate name %s for %d and %d", n, prev, e)
		}
		seen[n] = e
	}
}
