package vfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"iocov/internal/raceflag"
	"iocov/internal/sys"
)

// zeroBlockIntact reports whether the shared zero block still reads as
// zeros: a write that reached it would corrupt every filesystem at once.
func zeroBlockIntact() bool {
	for _, b := range zeroBlock {
		if b != 0 {
			return false
		}
	}
	return true
}

// TestZeroBlockCopyOnWrite drives random writes, preallocations, truncates
// and reads against a flat byte model of one file plus the set of blocks
// the file should hold. Zero writes make shared entries; non-zero writes
// over them must copy them first. After every operation the file's bytes,
// its block count, the filesystem's used blocks and the shared block
// itself are checked. The seeds run in parallel, so under -race several
// filesystems read the shared block at once.
func TestZeroBlockCopyOnWrite(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			checkCopyOnWrite(t, seed)
		})
	}
}

func checkCopyOnWrite(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := newFS(t)
	bs := fs.Config().BlockSize
	ino := mustCreate(t, fs, "/f")
	baseUsed := fs.UsedBlocks()

	var model []byte              // file contents, len == size
	allocated := map[int64]bool{} // block indices the file should hold
	grow := func(end int64) {
		if end > int64(len(model)) {
			model = append(model, make([]byte, end-int64(len(model)))...)
		}
	}
	allocate := func(off, end int64) {
		for bi := off / bs; bi <= (end-1)/bs; bi++ {
			allocated[bi] = true
		}
	}

	const span = 16 // blocks the dense operations range over
	cow := 0        // non-zero writes that landed on a shared entry
	for op := 0; op < 600; op++ {
		var what string
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // write
			var off, n int64
			switch rng.Intn(4) {
			case 0: // whole blocks
				off, n = rng.Int63n(span)*bs, (1+rng.Int63n(3))*bs
			case 1: // inside one block
				off = rng.Int63n(span*bs - 1)
				n = 1 + rng.Int63n(bs-off%bs)
			case 2: // straddling a block boundary
				r := 1 + rng.Int63n(bs-1)
				off, n = (1+rng.Int63n(span))*bs-r, r+1+rng.Int63n(bs)
			case 3: // past EOF, leaving a hole
				off = int64(len(model)) + (1+rng.Int63n(4))*bs + rng.Int63n(bs)
				n = 1 + rng.Int63n(2*bs)
			}
			data := make([]byte, n)
			zero := rng.Intn(2) == 0
			if !zero {
				// Random bytes behind a zero prefix, so one write can end
				// a shared block's zeros and start its copy.
				rng.Read(data[rng.Int63n(n):])
				if bytes.Equal(data, make([]byte, n)) {
					data[n-1] = 1
				}
				for pos := off; pos < off+n; pos = (pos/bs + 1) * bs {
					chunk := data[pos-off : min(off+n, (pos/bs+1)*bs)-off]
					blk, ok := ino.blocks[pos/bs]
					if ok && isZeroBlock(blk) && !bytes.Equal(chunk, make([]byte, len(chunk))) {
						cow++
					}
				}
			}
			what = fmt.Sprintf("write(off=%d, n=%d, zero=%v)", off, n, zero)
			if got, e := fs.WriteAt(Root, ino, data, off, false); e != sys.OK || got != int(n) {
				t.Fatalf("op %d: %s = %d, %v", op, what, got, e)
			}
			grow(off + n)
			copy(model[off:], data)
			allocate(off, off+n)
		case 4: // fallocate, with and without KEEP_SIZE
			off, n := rng.Int63n((span+4)*bs), 1+rng.Int63n(3*bs)
			mode := rng.Intn(2) * FallocKeepSize
			what = fmt.Sprintf("fallocate(mode=%d, off=%d, n=%d)", mode, off, n)
			if e := fs.Fallocate(Root, ino, mode, off, n); e != sys.OK {
				t.Fatalf("op %d: %s = %v", op, what, e)
			}
			if mode&FallocKeepSize == 0 {
				grow(off + n)
			}
			allocate(off, off+n)
		case 5: // shrink to mid-block, then grow again
			if len(model) < 2 {
				continue
			}
			target := rng.Int63n(int64(len(model)) - 1)
			if target%bs == 0 {
				target++
			}
			what = fmt.Sprintf("truncate(%d)", target)
			if e := fs.TruncateInode(Root, ino, target); e != sys.OK {
				t.Fatalf("op %d: %s = %v", op, what, e)
			}
			model = model[:target]
			for bi := range allocated {
				if bi > (target-1)/bs {
					delete(allocated, bi)
				}
			}
			if rng.Intn(2) == 0 {
				length := target + rng.Int63n(4*bs)
				what += fmt.Sprintf(", truncate(%d)", length)
				if e := fs.TruncateInode(Root, ino, length); e != sys.OK {
					t.Fatalf("op %d: %s = %v", op, what, e)
				}
				grow(length)
			}
		default: // read a random range
			off, n := rng.Int63n(int64(len(model))+bs), 1+rng.Int63n(3*bs)
			what = fmt.Sprintf("read(off=%d, n=%d)", off, n)
			buf := make([]byte, n)
			got, e := fs.ReadAt(Root, ino, buf, off)
			want := max(0, min(n, int64(len(model))-off))
			if e != sys.OK || int64(got) != want {
				t.Fatalf("op %d: %s = %d, %v; want %d", op, what, got, e, want)
			}
			if want > 0 && !bytes.Equal(buf[:got], model[off:off+want]) {
				t.Fatalf("op %d: %s differs from the model", op, what)
			}
		}

		all := make([]byte, len(model))
		if got, e := fs.ReadAt(Root, ino, all, 0); e != sys.OK || got != len(model) {
			t.Fatalf("op %d: after %s, full read = %d, %v; want %d", op, what, got, e, len(model))
		}
		if !bytes.Equal(all, model) {
			t.Fatalf("op %d: after %s, contents differ from the model", op, what)
		}
		if st := fs.statLockedForTest(ino); st.Size != int64(len(model)) || st.Blocks != int64(len(allocated)) {
			t.Fatalf("op %d: after %s, size %d blocks %d; model %d, %d",
				op, what, st.Size, st.Blocks, len(model), len(allocated))
		}
		if used := fs.UsedBlocks() - baseUsed; used != int64(len(allocated)) {
			t.Fatalf("op %d: after %s, UsedBlocks grew by %d, model holds %d", op, what, used, len(allocated))
		}
		if !zeroBlockIntact() {
			t.Fatalf("op %d: %s wrote into the shared zero block", op, what)
		}
	}
	if cow == 0 {
		t.Fatal("no non-zero write landed on a shared block; the copy-on-write path went untested")
	}
}

// TestCloneSharesZeroBlocks checks that Clone keeps shared entries shared
// and that a write into a clone's shared block does not reach the
// original, which the crash simulator relies on when it clones an image
// and keeps running the live filesystem.
func TestCloneSharesZeroBlocks(t *testing.T) {
	fs := newFS(t)
	bs := fs.Config().BlockSize
	f := mustCreate(t, fs, "/f")
	if _, e := fs.WriteAt(Root, f, make([]byte, 2*bs), 0, false); e != sys.OK {
		t.Fatalf("write: %v", e)
	}
	g := mustCreate(t, fs, "/g")
	if e := fs.Fallocate(Root, g, 0, 0, bs); e != sys.OK {
		t.Fatalf("fallocate: %v", e)
	}

	img := fs.Clone()
	for _, path := range []string{"/f", "/g"} {
		ino, e := img.LookupInode(img.Root(), Root, path, true)
		if e != sys.OK {
			t.Fatalf("lookup %s in clone: %v", path, e)
		}
		for bi, blk := range ino.blocks {
			if !isZeroBlock(blk) {
				t.Errorf("clone's %s block %d is a private copy of zeros", path, bi)
			}
		}
	}

	cf, _ := img.LookupInode(img.Root(), Root, "/f", true)
	if _, e := img.WriteAt(Root, cf, []byte("crash image"), 100, false); e != sys.OK {
		t.Fatalf("clone write: %v", e)
	}
	if got, _ := img.ReadFileAt("/f", 100, 11); string(got) != "crash image" {
		t.Errorf("clone reads %q after its write", got)
	}
	if got, _ := fs.ReadFileAt("/f", 0, int(2*bs)); !bytes.Equal(got, make([]byte, 2*bs)) {
		t.Error("a write into the clone's shared block reached the original")
	}
	if !isZeroBlock(f.blocks[0]) || isZeroBlock(cf.blocks[0]) || !isZeroBlock(cf.blocks[1]) {
		t.Error("copy-on-write did not give only the clone's written block a private copy")
	}
	if !zeroBlockIntact() {
		t.Fatal("the clone's write reached the shared zero block")
	}
}

// TestZeroWriteSharesBlocks pins the cost of the suites' and evolve's
// typical write: 64 MiB of zeros into a new file. Every entry must be the
// shared block, the file must still be charged for all of them, and the
// write must allocate no block storage — only the block map, about 1 MiB.
// Storing the zeros privately allocates about 64 MiB.
func TestZeroWriteSharesBlocks(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation measurements are unreliable under -race")
	}
	const size = 64 << 20
	buf := make([]byte, size)
	fs := newFS(t)
	f := mustCreate(t, fs, "/zeros")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if n, e := fs.WriteAt(Root, f, buf, 0, false); e != sys.OK || n != size {
		t.Fatalf("write = %d, %v", n, e)
	}
	runtime.ReadMemStats(&after)

	for bi, blk := range f.blocks {
		if !isZeroBlock(blk) {
			t.Fatalf("block %d is not the shared zero block", bi)
		}
	}
	if st := fs.statLockedForTest(f); st.Blocks != size/pooledBlockSize {
		t.Errorf("Blocks = %d, want %d", st.Blocks, size/pooledBlockSize)
	}
	delta := after.TotalAlloc - before.TotalAlloc
	t.Logf("64 MiB zero write allocates %d bytes", delta)
	if delta >= 2<<20 {
		t.Fatalf("64 MiB zero write allocates %d bytes, budget %d", delta, 2<<20)
	}
}
