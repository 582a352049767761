package vfs

import (
	"bytes"
	"testing"

	"iocov/internal/sys"
)

// TestReleaseFreesEachBlockOnce builds a tree with nested directories, a
// sparse file, a multi-block file reachable through a hard link, a
// symlink, a zero-filled file and a preallocated range, then checks that
// Release pools every private block exactly once and never pools the
// shared zero block. A block pooled twice would later be handed to two
// inodes at once; the zero block, pooled, would be handed out for writing.
func TestReleaseFreesEachBlockOnce(t *testing.T) {
	fs := newFS(t)
	bs := fs.Config().BlockSize
	mustMkdir(t, fs, "/a")
	mustMkdir(t, fs, "/a/b")
	mustMkdir(t, fs, "/a/b/c")

	sparse := mustCreate(t, fs, "/a/b/c/sparse")
	if _, e := fs.WriteAt(Root, sparse, []byte("hole before me"), 10*bs, false); e != sys.OK {
		t.Fatalf("sparse write: %v", e)
	}
	// Non-zero data, so that each of multi's four blocks is private.
	multi := mustCreate(t, fs, "/a/multi")
	data := make([]byte, 3*bs+100)
	for i := range data {
		data[i] = byte(i%251) + 1
	}
	if _, e := fs.WriteAt(Root, multi, data, 0, false); e != sys.OK {
		t.Fatalf("multi write: %v", e)
	}
	if e := fs.Link(fs.Root(), Root, "/a/multi", "/a/b/hard"); e != sys.OK {
		t.Fatalf("link: %v", e)
	}
	if e := fs.Symlink(fs.Root(), Root, "/a/multi", "/a/b/c/sym"); e != sys.OK {
		t.Fatalf("symlink: %v", e)
	}
	top := mustCreate(t, fs, "/top")
	if _, e := fs.WriteAt(Root, top, []byte("x"), 0, false); e != sys.OK {
		t.Fatalf("top write: %v", e)
	}
	zeros := mustCreate(t, fs, "/a/b/zeros")
	if _, e := fs.WriteAt(Root, zeros, make([]byte, 2*bs), 0, false); e != sys.OK {
		t.Fatalf("zeros write: %v", e)
	}
	pre := mustCreate(t, fs, "/a/pre")
	if e := fs.Fallocate(Root, pre, 0, bs, 3*bs); e != sys.OK {
		t.Fatalf("fallocate: %v", e)
	}

	want := map[*byte]bool{}
	for _, ino := range []*Inode{sparse, multi, top} {
		for _, blk := range ino.blocks {
			want[&blk[0]] = true
		}
	}
	if len(want) != 1+4+1 {
		t.Fatalf("allocated %d blocks, want 6", len(want))
	}
	shared := 0
	for _, ino := range []*Inode{zeros, pre} {
		for _, blk := range ino.blocks {
			if !isZeroBlock(blk) {
				t.Fatalf("inode %d holds a private block of zeros", ino.ino)
			}
			shared++
		}
	}
	if shared != 2+3 {
		t.Fatalf("zero-filled and preallocated files hold %d entries, want 5", shared)
	}

	freed := map[*byte]int{}
	calls := 0
	freeBlockHook = func(blk []byte) {
		if isZeroBlock(blk) {
			t.Error("Release pooled the shared zero block")
		}
		freed[&blk[0]]++
		calls++
	}
	defer func() { freeBlockHook = nil }()

	fs.Release()
	if calls != len(want) {
		t.Errorf("Release pooled %d blocks, want %d", calls, len(want))
	}
	for p, n := range freed {
		if !want[p] {
			t.Errorf("Release pooled a block no inode owned")
		}
		if n != 1 {
			t.Errorf("block pooled %d times, want once", n)
		}
	}
	for _, ino := range []*Inode{sparse, multi, top, zeros, pre} {
		if ino.blocks != nil {
			t.Errorf("inode %d keeps its block map after Release", ino.ino)
		}
	}

	calls = 0
	fs.Release()
	if calls != 0 {
		t.Errorf("second Release pooled %d blocks, want 0", calls)
	}
}

// TestReleasedBlockMapStartsEmpty checks that a large file's block map,
// pooled by Release, comes back empty: a later filesystem's file must not
// see the released file's blocks, whether or not the pool hands the map
// over.
func TestReleasedBlockMapStartsEmpty(t *testing.T) {
	bs := DefaultConfig().BlockSize
	old := newFS(t)
	f := mustCreate(t, old, "/f")
	data := bytes.Repeat([]byte{0xaa}, int(2*bigMapBlocks*bs))
	if _, e := old.WriteAt(Root, f, data, 0, false); e != sys.OK {
		t.Fatalf("write: %v", e)
	}
	old.Release()

	fs := newFS(t)
	g := mustCreate(t, fs, "/g")
	off := 4 * bigMapBlocks * bs
	if _, e := fs.WriteAt(Root, g, make([]byte, bigMapBlocks*bs), off, false); e != sys.OK {
		t.Fatalf("write: %v", e)
	}
	if st := fs.statLockedForTest(g); st.Blocks != bigMapBlocks {
		t.Errorf("Blocks = %d, want %d", st.Blocks, bigMapBlocks)
	}
	buf := make([]byte, 2*bigMapBlocks*bs)
	if _, e := fs.ReadAt(Root, g, buf, 0); e != sys.OK {
		t.Fatalf("read: %v", e)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("hole before the write reads the released file's data")
	}
}
