package evolve

import (
	"runtime"
	"strings"
	"testing"

	"iocov/internal/harness"
	"iocov/internal/raceflag"
	"iocov/internal/syz"
)

// bigIOProgram writes 2^26 bytes (syz.MaxDataLen) into a file and reads
// them back: the top read.count/write.count buckets evolve steers toward.
const bigIOProgram = `
r0 = open(&(0x7f00)='/evolve/big\x00', 0x42, 0x1b6)
write(r0, &(0x7f00)="00", 0x4000000)
pread64(r0, &(0x7f00), 0x4000000, 0x0)
close(r0)
`

// TestEvalOneSteadyStateBytes pins the candidate-memory recycling: once a
// candidate has run, the next one that writes and reads 64 MiB must find
// its read buffer in the executor's scratch pool and its block map in the
// vfs map pool (the previous FS was released). The written zeros share
// vfs's zero block and allocate nothing. A fresh read buffer costs
// 64 MiB and a fresh block map about 1.3 MB, so the 1 MiB budget catches
// the loss of either half.
func TestEvalOneSteadyStateBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation measurements are unreliable under -race")
	}
	progs, err := syz.Parse(strings.NewReader(bigIOProgram))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := newLayout(DefaultTargets())
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		c := evalOne(lay, "/evolve", progs[0])
		harness.ReleaseAnalyzer(c.an)
	}
	eval() // warm-up fills the block pool and the scratch pool

	// GC can evict sync.Pool contents mid-trial, so take the minimum over
	// a few trials as the steady-state figure.
	const budget = 1 << 20
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eval()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("steady-state candidate allocates %d bytes", best)
	if best >= budget {
		t.Fatalf("64 MiB write+read candidate allocates %d bytes, budget %d", best, budget)
	}
}
