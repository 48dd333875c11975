package faultinject

import (
	"reflect"
	"strings"
	"testing"

	"protego/internal/errno"
	"protego/internal/trace"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.Check("vfs.lookup"); err != nil {
		t.Fatalf("nil Check: %v", err)
	}
	if act, err := in.CheckSend("netstack.sendto"); act != ActNone || err != nil {
		t.Fatalf("nil CheckSend: %v %v", act, err)
	}
	data := []byte("hello")
	if out, err := in.CheckData("monitord.read.fstab", data); err != nil || string(out) != "hello" {
		t.Fatalf("nil CheckData: %q %v", out, err)
	}
	in.SetEnabled(false)
	in.SetTracer(nil)
	if in.Injections() != 0 || in.Records() != nil {
		t.Fatal("nil accessors should be zero")
	}
}

func TestNthScheduling(t *testing.T) {
	in := New(Plan{Seed: 1, Rules: []Rule{
		{Site: SiteVFSReadFile, Action: ActErr, Err: errno.EIO, Nth: 3},
	}})
	for i := 1; i <= 5; i++ {
		err := in.Check(SiteVFSReadFile)
		if (i == 3) != (err != nil) {
			t.Fatalf("readfile hit %d: err=%v", i, err)
		}
		if i == 3 && !errno.Is(err, errno.EIO) {
			t.Fatalf("readfile hit 3: want EIO, got %v", err)
		}
	}
	if got := in.Injections(); got != 1 {
		t.Fatalf("Injections = %d, want 1", got)
	}
}

func TestPrefixMatchAndSendActions(t *testing.T) {
	in := New(Plan{Seed: 7, Rules: []Rule{
		{Site: "netstack.*", Action: ActDrop, Nth: 1},
		{Site: SiteNetSendTo, Action: ActDup, Nth: 2},
	}})
	if act, err := in.CheckSend(SiteNetSendTo); act != ActDrop || err != nil {
		t.Fatalf("first sendto: %v %v", act, err)
	}
	if act, err := in.CheckSend(SiteNetSendTo); act != ActDup || err != nil {
		t.Fatalf("second sendto: %v %v", act, err)
	}
	if act, err := in.CheckSend(SiteNetSend); act != ActDrop || err != nil {
		t.Fatalf("first send (prefix): %v %v", act, err)
	}
	if act, err := in.CheckSend(SiteNetSendTo); act != ActNone || err != nil {
		t.Fatalf("third sendto: %v %v", act, err)
	}
}

func TestTornDataIsDeterministic(t *testing.T) {
	cfg := []byte("/dev/cdrom /cdrom iso9660 ro,user,noauto 0 0\n/dev/sda1 /usb vfat users 0 0\n")
	tear := func() []byte {
		in := New(Plan{Seed: 42, Rules: []Rule{{Site: SiteMonFstab, Action: ActTorn}}})
		out, err := in.CheckData(SiteMonFstab, cfg)
		if err != nil {
			t.Fatalf("CheckData: %v", err)
		}
		return out
	}
	a, b := tear(), tear()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("torn output not deterministic:\n%q\n%q", a, b)
	}
	if !strings.HasSuffix(string(a), "\x00torn") {
		t.Fatalf("torn output missing marker tail: %q", a)
	}
	if len(a) >= len(cfg)+5 {
		t.Fatalf("torn output not truncated: %d vs %d", len(a), len(cfg))
	}
}

func TestDisableStopsInjection(t *testing.T) {
	in := New(Plan{Seed: 1, Rules: []Rule{{Site: SiteVFSLookup, Action: ActErr, Err: errno.EIO}}})
	if err := in.Check(SiteVFSLookup); err == nil {
		t.Fatal("enabled injector did not fire")
	}
	in.SetEnabled(false)
	if err := in.Check(SiteVFSLookup); err != nil {
		t.Fatalf("disabled injector fired: %v", err)
	}
	in.SetEnabled(true)
	if err := in.Check(SiteVFSLookup); err == nil {
		t.Fatal("re-enabled injector did not fire")
	}
}

func TestTracerReceivesInjectionRecords(t *testing.T) {
	tr := trace.New(64)
	in := New(Plan{Seed: 1, Rules: []Rule{{Site: SiteAuthVerify, Action: ActErr, Err: errno.ETIMEDOUT}}})
	in.SetTracer(tr)
	for i := 0; i < 2; i++ {
		_ = in.Check(SiteAuthVerify)
	}
	evs := tr.SnapshotKind(trace.KindFaultInject)
	if len(evs) != 2 {
		t.Fatalf("trace ring has %d fault events, want 2", len(evs))
	}
	if evs[0].Name != SiteAuthVerify || evs[0].Module != "err" || evs[0].Err != "ETIMEDOUT" {
		t.Fatalf("bad fault event: %+v", evs[0])
	}
}

func TestCatalogCoversAllSweepSubsystems(t *testing.T) {
	cat := Catalog()
	if len(cat) < 25 {
		t.Fatalf("catalog has %d sites, want >= 25", len(cat))
	}
	groups := map[string]bool{}
	seen := map[string]bool{}
	for _, s := range cat {
		if seen[s.Name] {
			t.Errorf("duplicate site %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Actions) == 0 {
			t.Errorf("site %q has no actions", s.Name)
		}
		groups[strings.SplitN(s.Name, ".", 2)[0]] = true
	}
	for _, g := range []string{"vfs", "syscall", "netstack", "monitord", "authsvc"} {
		if !groups[g] {
			t.Errorf("catalog missing subsystem %q", g)
		}
	}
}
