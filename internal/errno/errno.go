// Package errno defines the Unix-style error numbers used throughout the
// simulated kernel. Every syscall in the simulation reports failure with an
// Errno so that userspace utilities can reproduce the exact error behaviour
// of their Linux counterparts (e.g. the Protego setuid-on-exec mechanism
// converts a delegation failure into EPERM at exec time rather than at
// setuid time).
package errno

import (
	"errors"
	"fmt"
)

// Errno is a Unix error number. The zero value means "no error" and must
// never be returned as an error.
type Errno int

// Error numbers mirror their Linux values where it matters for tests, but
// only identity (not the numeric value) is relied upon by the simulation.
const (
	EPERM        Errno = 1  // Operation not permitted
	ENOENT       Errno = 2  // No such file or directory
	ESRCH        Errno = 3  // No such process
	EINTR        Errno = 4  // Interrupted system call
	EIO          Errno = 5  // I/O error
	ENXIO        Errno = 6  // No such device or address
	E2BIG        Errno = 7  // Argument list too long
	ENOEXEC      Errno = 8  // Exec format error
	EBADF        Errno = 9  // Bad file number
	ECHILD       Errno = 10 // No child processes
	EAGAIN       Errno = 11 // Try again
	ENOMEM       Errno = 12 // Out of memory
	EACCES       Errno = 13 // Permission denied
	EFAULT       Errno = 14 // Bad address
	ENOTBLK      Errno = 15 // Block device required
	EBUSY        Errno = 16 // Device or resource busy
	EEXIST       Errno = 17 // File exists
	EXDEV        Errno = 18 // Cross-device link
	ENODEV       Errno = 19 // No such device
	ENOTDIR      Errno = 20 // Not a directory
	EISDIR       Errno = 21 // Is a directory
	EINVAL       Errno = 22 // Invalid argument
	ENFILE       Errno = 23 // File table overflow
	EMFILE       Errno = 24 // Too many open files
	ENOTTY       Errno = 25 // Not a typewriter
	ETXTBSY      Errno = 26 // Text file busy
	EFBIG        Errno = 27 // File too large
	ENOSPC       Errno = 28 // No space left on device
	ESPIPE       Errno = 29 // Illegal seek
	EROFS        Errno = 30 // Read-only file system
	EMLINK       Errno = 31 // Too many links
	EPIPE        Errno = 32 // Broken pipe
	ERANGE       Errno = 34 // Math result not representable
	ENAMETOOLONG Errno = 36 // File name too long
	ENOSYS       Errno = 38 // Function not implemented
	ENOTEMPTY    Errno = 39 // Directory not empty
	ELOOP        Errno = 40 // Too many symbolic links encountered

	EADDRINUSE    Errno = 98  // Address already in use
	EADDRNOTAVAIL Errno = 99  // Cannot assign requested address
	ENETUNREACH   Errno = 101 // Network is unreachable
	ECONNRESET    Errno = 104 // Connection reset by peer
	ENOBUFS       Errno = 105 // No buffer space available
	EISCONN       Errno = 106 // Transport endpoint is already connected
	ENOTCONN      Errno = 107 // Transport endpoint is not connected
	ETIMEDOUT     Errno = 110 // Connection timed out
	ECONNREFUSED  Errno = 111 // Connection refused
	EHOSTUNREACH  Errno = 113 // No route to host
	EALREADY      Errno = 114 // Operation already in progress
)

var names = map[Errno]string{
	EPERM:         "EPERM",
	ENOENT:        "ENOENT",
	ESRCH:         "ESRCH",
	EINTR:         "EINTR",
	EIO:           "EIO",
	ENXIO:         "ENXIO",
	E2BIG:         "E2BIG",
	ENOEXEC:       "ENOEXEC",
	EBADF:         "EBADF",
	ECHILD:        "ECHILD",
	EAGAIN:        "EAGAIN",
	ENOMEM:        "ENOMEM",
	EACCES:        "EACCES",
	EFAULT:        "EFAULT",
	ENOTBLK:       "ENOTBLK",
	EBUSY:         "EBUSY",
	EEXIST:        "EEXIST",
	EXDEV:         "EXDEV",
	ENODEV:        "ENODEV",
	ENOTDIR:       "ENOTDIR",
	EISDIR:        "EISDIR",
	EINVAL:        "EINVAL",
	ENFILE:        "ENFILE",
	EMFILE:        "EMFILE",
	ENOTTY:        "ENOTTY",
	ETXTBSY:       "ETXTBSY",
	EFBIG:         "EFBIG",
	ENOSPC:        "ENOSPC",
	ESPIPE:        "ESPIPE",
	EROFS:         "EROFS",
	EMLINK:        "EMLINK",
	EPIPE:         "EPIPE",
	ERANGE:        "ERANGE",
	ENAMETOOLONG:  "ENAMETOOLONG",
	ENOSYS:        "ENOSYS",
	ENOTEMPTY:     "ENOTEMPTY",
	ELOOP:         "ELOOP",
	EADDRINUSE:    "EADDRINUSE",
	EADDRNOTAVAIL: "EADDRNOTAVAIL",
	ENETUNREACH:   "ENETUNREACH",
	ECONNRESET:    "ECONNRESET",
	ENOBUFS:       "ENOBUFS",
	EISCONN:       "EISCONN",
	ENOTCONN:      "ENOTCONN",
	ETIMEDOUT:     "ETIMEDOUT",
	ECONNREFUSED:  "ECONNREFUSED",
	EHOSTUNREACH:  "EHOSTUNREACH",
	EALREADY:      "EALREADY",
}

var messages = map[Errno]string{
	EPERM:        "operation not permitted",
	ENOENT:       "no such file or directory",
	ESRCH:        "no such process",
	EACCES:       "permission denied",
	EBUSY:        "device or resource busy",
	EEXIST:       "file exists",
	ENODEV:       "no such device",
	ENOTDIR:      "not a directory",
	EISDIR:       "is a directory",
	EINVAL:       "invalid argument",
	EBADF:        "bad file descriptor",
	EADDRINUSE:   "address already in use",
	ENETUNREACH:  "network is unreachable",
	ECONNREFUSED: "connection refused",
	EROFS:        "read-only file system",
	ENOSYS:       "function not implemented",
	ENOTEMPTY:    "directory not empty",
	ENOTTY:       "inappropriate ioctl for device",
}

// Error implements the error interface.
func (e Errno) Error() string {
	if msg, ok := messages[e]; ok {
		return msg
	}
	if name, ok := names[e]; ok {
		return name
	}
	return fmt.Sprintf("errno %d", int(e))
}

// Name returns the symbolic constant name, e.g. "EPERM".
func (e Errno) Name() string {
	if name, ok := names[e]; ok {
		return name
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// Is reports whether err is, or wraps, the error number e. It is the
// package-level spelling of errors.Is(err, e) used by tests and the fault
// sweep: errno.Is(err, errno.EACCES).
func Is(err error, e Errno) bool {
	return errors.Is(err, e)
}

// Of extracts the Errno from err (unwrapping as needed), returning 0 if
// err is nil or carries no Errno.
func Of(err error) Errno {
	if err == nil {
		return 0
	}
	var e Errno
	if errors.As(err, &e) {
		return e
	}
	return 0
}
