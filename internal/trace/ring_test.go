package trace

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"protego/internal/errno"
)

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	default:
		return false
	}
}

// TestRingRecordPointerFree: a ring chunk holds no pointer, so the
// garbage collector never scans one, and each slot (lock and record) is
// 64 bytes.
func TestRingRecordPointerFree(t *testing.T) {
	if !hasPointers(reflect.TypeOf(Event{})) {
		t.Fatal("the walk finds no pointer in Event, which holds strings")
	}
	if hasPointers(reflect.TypeOf(ringChunk{})) {
		t.Error("a ring chunk holds a pointer")
	}
	if size := unsafe.Sizeof(slot{}); size != 64 {
		t.Errorf("a slot is %d bytes, want 64", size)
	}
}

// TestRingRoundTrip emits one event through each producer and each error
// shape, snapshots them back, then laps the ring with text-free events so
// that every slot that held text is reused, and checks every Event field
// but Time and Latency both times.
func TestRingRoundTrip(t *testing.T) {
	const capacity = 16
	tr := New(capacity)
	var hook HistogramRef
	open := Intern("open")
	var want []Event
	exit := func(err error, errText string) {
		tr.SyscallExit(tr.SyscallEnterNo(3, open, 42, 1000), err)
		want = append(want,
			Event{Kind: KindSyscallEnter, Name: "open", PID: 42, UID: 1000},
			Event{Kind: KindSyscallExit, Name: "open", PID: 42, UID: 1000, Err: errText})
	}
	exit(nil, "")
	exit(errno.EACCES, "permission denied")
	exit(fmt.Errorf("open /x: %w", errno.ENOENT), "open /x: no such file or directory")
	exit(errors.New("boom"), "boom")

	tr.HookDecision(&hook, Intern("MountCheck"), 7, 1000, Intern("deny"), Intern("protego"), errno.EPERM, Now())
	tr.NetfilterVerdictRef(nil, Intern("OUTPUT"), Intern("drop-unpriv-raw-tcp"), Intern("DROP"), 1001)
	tr.NetfilterVerdictRef(nil, Intern("OUTPUT"), 0, Intern("ACCEPT"), 1001)
	tr.MonitordSync("mounts", Now(), errors.New("torn read"))
	tr.AuthCheckRef(nil, "password", "alice", 9, 1000, false)
	tr.FaultInject("sys.open", "err", errno.EACCES, 3)
	tr.FaultInject("net.send", "drop", 0, 1)
	tr.Audit("mount denied: pid=7")
	want = append(want,
		Event{Kind: KindLSMDecision, Name: "MountCheck", PID: 7, UID: 1000,
			Module: "protego", Decision: "deny", Err: "operation not permitted"},
		Event{Kind: KindNetfilterVerdict, Name: "OUTPUT", UID: 1001,
			Module: "drop-unpriv-raw-tcp", Decision: "DROP"},
		Event{Kind: KindNetfilterVerdict, Name: "OUTPUT", UID: 1001, Decision: "ACCEPT"},
		Event{Kind: KindMonitordSync, Name: "mounts", Err: "torn read"},
		Event{Kind: KindAuthCheck, Name: "alice", PID: 9, UID: 1000,
			Module: "password", Decision: "fail"},
		Event{Kind: KindFaultInject, Name: "sys.open", Module: "err", Err: "EACCES", Msg: "hit=3"},
		Event{Kind: KindFaultInject, Name: "net.send", Module: "drop", Msg: "hit=1"},
		Event{Kind: KindAudit, Msg: "mount denied: pid=7"})
	if len(want) != capacity {
		t.Fatalf("the first round emits %d events, want the ring's %d", len(want), capacity)
	}
	check := func(round string, first uint64) {
		t.Helper()
		got := tr.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("%s: snapshot holds %d events, want %d", round, len(got), len(want))
		}
		for i, ev := range got {
			w := want[i]
			w.Seq = first + uint64(i)
			ev.Time, ev.Latency = time.Time{}, 0
			if ev != w {
				t.Errorf("%s: event %d\n got %+v\nwant %+v", round, i, ev, w)
			}
		}
	}
	check("producers", 0)

	want = want[:0]
	for len(want) < capacity {
		exit(nil, "")
	}
	check("lapped", capacity)
	for j, text := range tr.ring.chunks[0].text.Load() {
		if text != "" {
			t.Errorf("side slot %d still holds lapped text %q", j, text)
		}
	}
}
