package vfs

import "sync"

// Data-block recycling. File data lives in per-inode maps of fixed-size
// blocks that are allocated on first write and dropped wholesale when a file
// is truncated or unlinked — exactly the lifecycle of the suites' storm
// workloads, which write hundreds of megabytes into a chunk's scratch files
// and then unlink them. Without recycling, every storm chunk re-allocates
// its whole working set from the heap, and a parallel run multiplies that
// churn by the worker count.
//
// Safety argument for sharing one pool across FS instances: a block slice
// never escapes the owning FS's mutex. ReadAt/WriteAt copy bytes in and
// out, Clone deep-copies every private block, and no accessor returns a
// block slice. A block is returned to the pool only at the three points
// where its map entry is dropped (truncate shrink, releaseInode,
// FS.Release), after which nothing references it. FS.Release retires a
// whole filesystem at once and comes with a stronger contract: the FS must
// not be used after Release. Its files have lost their data and its space
// accounting no longer matches what is stored.
//
// A block of zeros is not stored privately at all. Every map entry whose
// contents are all zero — a zero-filled write, or a preallocation — refers
// to the one package-level zeroBlock, as Linux maps untouched anonymous
// memory to ZERO_PAGE. The entry stays in the map, so Stat.Blocks and the
// space and quota accounting are what a private block gives. The shared
// block is read by every FS at once and is safe only because it is never
// written and never pooled. Four sites check for it: WriteAt replaces it
// with a private block before writing non-zero bytes (copy-on-write),
// truncateLocked skips zeroing its tail, freeBlock never pools it, and
// cloneInode shares it instead of copying it.
//
// Only the default 4 KiB geometry is pooled and shares the zero block;
// filesystems configured with another block size fall back to plain
// allocation. Pool entries are dirty: newBlock zeroes them on reuse unless
// the caller is about to overwrite the whole block.
//
// FS.Release also recycles the block maps of large files. A map indexing
// a 64 MiB file is itself about 1 MiB, which a throwaway filesystem would
// otherwise allocate again for every large write. Only maps of at least
// bigMapBlocks entries are pooled, and only a first write that allocates
// that many blocks takes one: a large map handed to a small file would
// make every range over the map (truncate, release, clone) scan a table
// sized for the large one.

// pooledBlockSize matches DefaultConfig().BlockSize.
const pooledBlockSize = 4096

// blockPool holds retired *[pooledBlockSize]byte blocks. The array-pointer
// form keeps Put from boxing a slice header on every call.
var blockPool sync.Pool

// zeroBlock is the block every all-zero map entry of the pooled geometry
// refers to. It is never written and never pooled.
var zeroBlock [pooledBlockSize]byte

// isZeroBlock reports whether blk is the shared zeroBlock.
func isZeroBlock(blk []byte) bool {
	return len(blk) == pooledBlockSize && &blk[0] == &zeroBlock[0]
}

// bigMapBlocks is the smallest block map Release pools (1 MiB of data).
const bigMapBlocks = 256

// blockMapPool holds emptied block maps of at least bigMapBlocks entries.
var blockMapPool sync.Pool

// newBlockMap returns an empty block map for a file about to receive n
// blocks, recycled from a released filesystem when n is large.
func newBlockMap(n int64) map[int64][]byte {
	if n >= bigMapBlocks {
		if m, ok := blockMapPool.Get().(map[int64][]byte); ok {
			return m
		}
	}
	return make(map[int64][]byte, n)
}

// newBlock returns a bs-byte block. zero says the caller needs zero-filled
// contents (a partial write or an explicit preallocation); callers that
// overwrite the whole block immediately pass false and skip the clear.
func newBlock(bs int64, zero bool) []byte {
	if bs != pooledBlockSize {
		return make([]byte, bs)
	}
	if p, ok := blockPool.Get().(*[pooledBlockSize]byte); ok {
		blk := p[:]
		if zero {
			clear(blk)
		}
		return blk
	}
	return make([]byte, pooledBlockSize)
}

// zeroFilledBlock returns a block that reads as zeros: the shared zeroBlock
// in the pooled geometry, a fresh allocation in any other.
func zeroFilledBlock(bs int64) []byte {
	if bs == pooledBlockSize {
		return zeroBlock[:]
	}
	return make([]byte, bs)
}

// freeBlock retires a block dropped from an inode's block map. Blocks of a
// non-pooled geometry are left to the garbage collector, and the shared
// zeroBlock stays where it is.
//
//iocov:hotpath
func freeBlock(bs int64, blk []byte) {
	if bs != pooledBlockSize || len(blk) != pooledBlockSize || isZeroBlock(blk) {
		return
	}
	if freeBlockHook != nil {
		freeBlockHook(blk)
	}
	blockPool.Put((*[pooledBlockSize]byte)(blk))
}

// freeBlockHook, when non-nil, observes every block freeBlock pools. Only
// this package's tests set it, to prove each block is retired exactly once.
var freeBlockHook func(blk []byte)

// Release returns every data block of the filesystem to the block pool,
// and the block maps of large files to the map pool. It is for throwaway
// filesystems — one per evolve candidate — whose whole working set would
// otherwise be left to the garbage collector and re-allocated by the next
// instance. Each inode's block map is dropped as it is freed, so a
// hard-linked inode reached twice is freed once and a second Release frees
// nothing. The FS must not be used after Release.
func (fs *FS) Release() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	stack := []*Inode{fs.root}
	for len(stack) > 0 {
		ino := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, blk := range ino.blocks {
			freeBlock(fs.cfg.BlockSize, blk)
		}
		if len(ino.blocks) >= bigMapBlocks {
			clear(ino.blocks)
			blockMapPool.Put(ino.blocks)
		}
		ino.blocks = nil
		for _, child := range ino.children {
			stack = append(stack, child)
		}
	}
}
