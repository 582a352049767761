package syz

import (
	"reflect"
	"strings"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/sys"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// allSyscallsProgram exercises every entry in the signature table exactly
// once, pinning the table and the executor to each other (a mismatch
// panics in executeCall).
const allSyscallsProgram = `
r0 = open(&(0x7f00)='/f\x00', 0x42, 0x1b6)
write(r0, &(0x7f00)="00", 0x40)
pwrite64(r0, &(0x7f00)="00", 0x10, 0x100)
lseek(r0, 0x0, 0x0)
read(r0, &(0x7f00), 0x20)
pread64(r0, &(0x7f00), 0x20, 0x0)
ftruncate(r0, 0x80)
fchmod(r0, 0x1a4)
fsetxattr(r0, &(0x7f00)='user.f\x00', &(0x7f00)="00", 0x8, 0x0)
fgetxattr(r0, &(0x7f00)='user.f\x00', &(0x7f00), 0x20)
close(r0)
r1 = openat(0xffffffffffffff9c, &(0x7f00)='/g\x00', 0x42, 0x1b6)
close(r1)
r2 = creat(&(0x7f00)='/h\x00', 0x1b6)
close(r2)
truncate(&(0x7f00)='/f\x00', 0x40)
mkdir(&(0x7f00)='/d\x00', 0x1ed)
mkdirat(0xffffffffffffff9c, &(0x7f00)='/d2\x00', 0x1ed)
chmod(&(0x7f00)='/f\x00', 0x180)
fchmodat(0xffffffffffffff9c, &(0x7f00)='/f\x00', 0x1a4, 0x0)
chdir(&(0x7f00)='/d\x00')
chdir(&(0x7f00)='/\x00')
r3 = open(&(0x7f00)='/d\x00', 0x10000, 0x0)
fchdir(r3)
close(r3)
chdir(&(0x7f00)='/\x00')
setxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.a\x00', &(0x7f00)="00", 0x10, 0x0)
lsetxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.b\x00', &(0x7f00)="00", 0x10, 0x0)
getxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.a\x00', &(0x7f00), 0x40)
lgetxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.b\x00', &(0x7f00), 0x40)
`

func TestExecuteEverySignature(t *testing.T) {
	progs, err := Parse(strings.NewReader(allSyscallsProgram))
	if err != nil {
		t.Fatal(err)
	}
	// Every signature-table syscall appears in the program.
	seen := map[string]bool{}
	for _, p := range progs {
		for _, c := range p.Calls {
			seen[c.Name] = true
		}
	}
	missing := 0
	for name := range signatures {
		if name == "readv" || name == "writev" {
			continue // vector calls have no syzlang form here
		}
		if !seen[name] {
			t.Errorf("signature %s not exercised by the pin program", name)
			missing++
		}
	}
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: an})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	res := Execute(p, progs)
	if res.Skipped != 0 {
		t.Errorf("skipped %d calls", res.Skipped)
	}
	if res.Failures != 0 {
		t.Errorf("%d calls failed", res.Failures)
	}
	// All 11 base syscalls got coverage.
	if got := len(an.Syscalls()); got != 11 {
		t.Errorf("observed %d base syscalls, want 11 (%v)", got, an.Syscalls())
	}
	// Filesystem side effects are real.
	if st, e := p.Stat("/f"); e != sys.OK || st.Size != 0x40 {
		t.Errorf("final /f = %+v, %v", st, e)
	}
	if st, e := p.Stat("/d2"); e != sys.OK || st.Type != vfs.TypeDir {
		t.Errorf("mkdirat result = %+v, %v", st, e)
	}
}

// TestConvertEverySignature pins static conversion the same way.
func TestConvertEverySignature(t *testing.T) {
	progs, err := Parse(strings.NewReader(allSyscallsProgram))
	if err != nil {
		t.Fatal(err)
	}
	events, skipped := Convert(progs)
	if skipped != 0 {
		t.Errorf("skipped %d", skipped)
	}
	an := coverage.NewAnalyzer(coverage.DefaultOptions())
	an.AddAll(events)
	if got := len(an.Syscalls()); got != 11 {
		t.Errorf("static conversion observed %d base syscalls (%v)", got, an.Syscalls())
	}
	// Arg keys land where the analyzer expects: spot-check several.
	if an.Input("truncate", "length").Count("2^6") != 1 {
		t.Errorf("truncate.length = %v", an.Input("truncate", "length").Counts)
	}
	if an.Input("chmod", "mode") == nil {
		t.Error("chmod.mode missing")
	}
	if an.Input("getxattr", "size").Count("2^6") != 2 {
		t.Errorf("getxattr.size = %v", an.Input("getxattr", "size").Counts)
	}
	if an.Input("read", "pos").Count("=0") != 1 {
		t.Errorf("pread pos = %v", an.Input("read", "pos").Counts)
	}
}

// scratchReuseProgram reads through one Execute's scratch with shrinking
// sizes: a 64 KiB getxattr grows it, then a smaller read, pread64 and an
// undersized getxattr take shorter slices of the same buffer.
const scratchReuseProgram = `
r0 = open(&(0x7f00)='/f\x00', 0x42, 0x1b6)
write(r0, &(0x7f00)="00", 0x3000)
setxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.big\x00', &(0x7f00)="00", 0x8000, 0x0)
getxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.big\x00', &(0x7f00), 0x10000)
lseek(r0, 0x0, 0x0)
read(r0, &(0x7f00), 0x100)
pread64(r0, &(0x7f00), 0x20, 0x2ff0)
getxattr(&(0x7f00)='/f\x00', &(0x7f00)='user.big\x00', &(0x7f00), 0x10)
close(r0)
`

// TestExecuteScratchMatchesFreshBuffers runs scratchReuseProgram through
// Execute and the same calls through the kernel with a fresh buffer each,
// and requires identical traces: the scratch may change where read-side
// bytes land, never the traced count/size or the return values.
func TestExecuteScratchMatchesFreshBuffers(t *testing.T) {
	progs, err := Parse(strings.NewReader(scratchReuseProgram))
	if err != nil {
		t.Fatal(err)
	}
	got := trace.NewCollector()
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: got})
	if res := Execute(k.NewProc(kernel.ProcOptions{Cred: vfs.Root}), progs); res.Skipped != 0 {
		t.Fatalf("skipped %d calls", res.Skipped)
	}

	want := trace.NewCollector()
	k = kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: want})
	p := k.NewProc(kernel.ProcOptions{Cred: vfs.Root})
	fd, _ := p.Open("/f", 0x42, 0x1b6)
	_, _ = p.Write(fd, make([]byte, 0x3000))
	_ = p.Setxattr("/f", "user.big", make([]byte, 0x8000), 0)
	_, _ = p.Getxattr("/f", "user.big", make([]byte, 0x10000))
	_, _ = p.Lseek(fd, 0, 0)
	_, _ = p.Read(fd, make([]byte, 0x100))
	_, _ = p.Pread64(fd, make([]byte, 0x20), 0x2ff0)
	_, _ = p.Getxattr("/f", "user.big", make([]byte, 0x10))
	_ = p.Close(fd)

	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Fatalf("Execute trace differs from fresh-buffer trace:\n got %+v\nwant %+v", got.Events(), want.Events())
	}
	// Spot-check the read side so a trace that lost its arguments cannot
	// pass by matching an equally broken reference.
	type obs struct {
		key      string
		arg, ret int64
		errno    sys.Errno
	}
	wantObs := map[int]obs{
		3: {"size", 0x10000, 0x8000, sys.OK},
		5: {"count", 0x100, 0x100, sys.OK},
		6: {"count", 0x20, 0x10, sys.OK},
		7: {"size", 0x10, 0, sys.ERANGE},
	}
	evs := got.Events()
	for i, w := range wantObs {
		ev := &evs[i]
		if v, _ := ev.Arg(w.key); v != w.arg || ev.Err != w.errno || (w.errno == sys.OK && ev.Ret != w.ret) {
			t.Errorf("event %d %s: %s=%d ret=%d err=%v, want %s=%d ret=%d err=%v",
				i, ev.Name, w.key, v, ev.Ret, ev.Err, w.key, w.arg, w.ret, w.errno)
		}
	}
}
