package vfs

import (
	"bytes"
	"fmt"

	"iocov/internal/sys"
)

// largeFileLimit is the 2 GiB boundary guarded by O_LARGEFILE on Linux
// opens that do not request large-file support.
const largeFileLimit = int64(1) << 31

// OpenResult reports what OpenInode resolved.
type OpenResult struct {
	Ino     *Inode
	Created bool
}

// OpenInode implements the filesystem half of open(2): path resolution with
// O_CREAT/O_EXCL/O_NOFOLLOW/O_DIRECTORY semantics, permission checks for the
// requested access mode, O_TRUNC, and the O_LARGEFILE overflow check. The
// caller (internal/kernel) owns fd allocation and flag validation.
func (fs *FS) OpenInode(base *Inode, cred Cred, path string, flags int, mode uint32) (OpenResult, sys.Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.hitRegion("do_sys_open")

	accmode := flags & sys.O_ACCMODE
	wantWrite := accmode == sys.O_WRONLY || accmode == sys.O_RDWR
	opt := resolveOpts{followLast: flags&sys.O_NOFOLLOW == 0}

	var ino *Inode
	created := false
	if flags&sys.O_CREAT != 0 {
		res, e := fs.resolve(base, cred, path, resolveOpts{wantParent: true, followLast: opt.followLast})
		if e != sys.OK {
			return OpenResult{}, e
		}
		if res.ino == nil && res.dir == nil {
			// Resolved through a trailing symlink to an existing target.
			return OpenResult{}, sys.ENOENT
		}
		if res.ino != nil {
			if flags&sys.O_EXCL != 0 {
				return OpenResult{}, sys.EEXIST
			}
			ino = res.ino
			if ino.typ == TypeSymlink {
				if flags&sys.O_NOFOLLOW != 0 {
					return OpenResult{}, sys.ELOOP
				}
				sub, e := fs.resolve(res.dir, cred, ino.target, resolveOpts{followLast: true})
				if e != sys.OK {
					return OpenResult{}, e
				}
				ino = sub.ino
			}
		} else {
			if fs.cfg.ReadOnly {
				return OpenResult{}, sys.EROFS
			}
			if e := checkAccess(res.dir, cred, permWrite|permExec); e != sys.OK {
				return OpenResult{}, e
			}
			if e := fs.chargeBlocks(cred, 1); e != sys.OK {
				// One block for the new inode's metadata footprint.
				return OpenResult{}, e
			}
			ino = fs.newInode(TypeFile, mode, cred)
			ino.parent = res.dir
			res.dir.children[res.name] = ino
			fs.stampData(res.dir)
			created = true
		}
	} else {
		res, e := fs.resolve(base, cred, path, opt)
		if e != sys.OK {
			return OpenResult{}, e
		}
		ino = res.ino
		if ino.typ == TypeSymlink {
			// Only reachable with O_NOFOLLOW and no O_PATH.
			if flags&sys.O_PATH == 0 {
				return OpenResult{}, sys.ELOOP
			}
		}
	}

	if flags&sys.O_DIRECTORY != 0 && ino.typ != TypeDir {
		return OpenResult{}, sys.ENOTDIR
	}
	if ino.typ == TypeDir && wantWrite {
		return OpenResult{}, sys.EISDIR
	}
	if flags&sys.O_PATH == 0 {
		var want uint32
		switch accmode {
		case sys.O_RDONLY:
			want = permRead
		case sys.O_WRONLY:
			want = permWrite
		case sys.O_RDWR:
			want = permRead | permWrite
		}
		if !created {
			if e := checkAccess(ino, cred, want); e != sys.OK {
				return OpenResult{}, e
			}
		}
		if wantWrite && fs.cfg.ReadOnly {
			return OpenResult{}, sys.EROFS
		}
	}

	// generic_file_open: without O_LARGEFILE, files at or beyond 2 GiB must
	// be refused with EOVERFLOW. The injected LargefileOpen bug omits the
	// check (modelled on torvalds/linux f3bf67c6c6fe).
	fs.hitRegion("generic_file_open")
	fs.hitRegion("generic_file_open:guard")
	if ino.typ == TypeFile && flags&sys.O_LARGEFILE == 0 && ino.size >= largeFileLimit {
		fs.hitRegion("generic_file_open:overflow-branch")
		if fs.cfg.Bugs.LargefileOpen {
			fs.recordCorruption(fmt.Sprintf("largefile: inode %d size %d opened without O_LARGEFILE", ino.ino, ino.size))
		} else {
			return OpenResult{}, sys.EOVERFLOW
		}
	}

	if flags&sys.O_TRUNC != 0 && ino.typ == TypeFile && wantWrite && flags&sys.O_PATH == 0 {
		if e := fs.truncateLocked(cred, ino, 0); e != sys.OK {
			return OpenResult{}, e
		}
	}
	return OpenResult{Ino: ino, Created: created}, sys.OK
}

// ReadAt reads up to len(buf) bytes from ino starting at off. It returns the
// number of bytes read; reading at or past EOF returns 0, sys.OK. Holes in
// sparse files read as zeros.
func (fs *FS) ReadAt(cred Cred, ino *Inode, buf []byte, off int64) (int, sys.Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.hitRegion("vfs_read")
	if ino.typ == TypeDir {
		return 0, sys.EISDIR
	}
	if off < 0 {
		return 0, sys.EINVAL
	}
	// ext4_get_branch: a bad block must surface as EIO. The injected
	// GetBranchErrno bug returns success with no data instead (modelled on
	// torvalds/linux 26d75a16af28).
	fs.hitRegion("ext4_get_branch")
	if ino.badBlock {
		fs.hitRegion("ext4_get_branch:badblock-branch")
		if fs.cfg.Bugs.GetBranchErrno {
			fs.recordCorruption(fmt.Sprintf("get_branch: inode %d bad block read returned 0 instead of EIO", ino.ino))
			return 0, sys.OK
		}
		return 0, sys.EIO
	}
	if off >= ino.size {
		return 0, sys.OK
	}
	n := int64(len(buf))
	if off+n > ino.size {
		n = ino.size - off
	}
	bs := fs.cfg.BlockSize
	var copied int64
	for copied < n {
		pos := off + copied
		bi, bo := pos/bs, pos%bs
		chunk := bs - bo
		if rest := n - copied; chunk > rest {
			chunk = rest
		}
		dst := buf[copied : copied+chunk]
		if blk, ok := ino.blocks[bi]; ok {
			copy(dst, blk[bo:bo+chunk])
		} else {
			for i := range dst {
				dst[i] = 0
			}
		}
		copied += chunk
	}
	return int(n), sys.OK
}

// WriteAt writes buf to ino at off, allocating blocks lazily and charging
// only newly allocated ones (holes stay free, as on a real filesystem).
// nonblock models an RWF_NOWAIT-style write for the injected
// NowaitWriteENOSPC bug.
func (fs *FS) WriteAt(cred Cred, ino *Inode, buf []byte, off int64, nonblock bool) (int, sys.Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.hitRegion("vfs_write")
	if ino.typ == TypeDir {
		return 0, sys.EISDIR
	}
	if off < 0 {
		return 0, sys.EINVAL
	}
	if fs.cfg.ReadOnly {
		return 0, sys.EROFS
	}
	if len(buf) == 0 {
		return 0, sys.OK
	}
	end := off + int64(len(buf))
	if end < 0 || end > fs.cfg.MaxFileSize {
		return 0, sys.EFBIG
	}
	bs := fs.cfg.BlockSize
	firstBlk, lastBlk := off/bs, (end-1)/bs
	var newBlocks int64
	for bi := firstBlk; bi <= lastBlk; bi++ {
		if _, ok := ino.blocks[bi]; !ok {
			newBlocks++
		}
	}
	if newBlocks > 0 {
		// btrfs_buffered_write NOWAIT path: needing allocation under
		// NOWAIT must fall back, not fail. The injected bug returns
		// ENOSPC (modelled on torvalds/linux a348c8d4f6cf).
		fs.hitRegion("btrfs_buffered_write")
		if nonblock {
			fs.hitRegion("btrfs_buffered_write:nowait-branch")
			if fs.cfg.Bugs.NowaitWriteENOSPC {
				return 0, sys.ENOSPC
			}
		}
		if e := fs.chargeBlocks(cred, newBlocks); e != sys.OK {
			return 0, e
		}
	}
	if ino.blocks == nil {
		ino.blocks = newBlockMap(newBlocks)
	}
	var copied int64
	for copied < int64(len(buf)) {
		pos := off + copied
		bi, bo := pos/bs, pos%bs
		chunk := bs - bo
		if rest := int64(len(buf)) - copied; chunk > rest {
			chunk = rest
		}
		src := buf[copied : copied+chunk]
		copied += chunk
		blk, ok := ino.blocks[bi]
		if !ok || isZeroBlock(blk) {
			// Zeros written over a hole or the shared zero block leave a
			// block of zeros, which the shared block already holds.
			if bs == pooledBlockSize && bytes.Equal(src, zeroBlock[:chunk]) {
				if !ok {
					ino.blocks[bi] = zeroBlock[:]
				}
				continue
			}
			// A write covering the whole block overwrites every byte below,
			// so a recycled block only needs zeroing for partial coverage.
			blk = newBlock(bs, bo != 0 || chunk != bs)
			ino.blocks[bi] = blk
		}
		copy(blk[bo:bo+chunk], src)
	}
	if end > ino.size {
		ino.size = end
	}
	fs.stampData(ino)
	return len(buf), sys.OK
}

// Truncate resolves path and sets the file's size to length.
func (fs *FS) Truncate(base *Inode, cred Cred, path string, length int64) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	res, e := fs.resolve(base, cred, path, resolveOpts{followLast: true})
	if e != sys.OK {
		return e
	}
	ino := res.ino
	if ino.typ == TypeDir {
		return sys.EISDIR
	}
	if ino.typ != TypeFile {
		return sys.EINVAL
	}
	if e := checkAccess(ino, cred, permWrite); e != sys.OK {
		return e
	}
	return fs.truncateLocked(cred, ino, length)
}

// TruncateInode is ftruncate's filesystem half; the kernel layer has already
// validated the descriptor's access mode.
func (fs *FS) TruncateInode(cred Cred, ino *Inode, length int64) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if ino.typ == TypeDir {
		return sys.EISDIR
	}
	if ino.typ != TypeFile {
		return sys.EINVAL
	}
	return fs.truncateLocked(cred, ino, length)
}

func (fs *FS) truncateLocked(cred Cred, ino *Inode, length int64) sys.Errno {
	fs.hitRegion("ext4_truncate")
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	if length < 0 {
		return sys.EINVAL
	}
	if length > fs.cfg.MaxFileSize {
		return sys.EFBIG
	}
	target := length
	// ext4 resize class: expansion that lands exactly on a block boundary
	// must still reach the target size; the injected bug stops one block
	// short (modelled on torvalds/linux df3cb754d13d).
	if length > ino.size && length%fs.cfg.BlockSize == 0 && length >= fs.cfg.BlockSize {
		fs.hitRegion("ext4_truncate:aligned-branch")
		if fs.cfg.Bugs.TruncateExpandError {
			target = length - fs.cfg.BlockSize
			fs.recordCorruption(fmt.Sprintf("truncate-expand: inode %d asked %d got %d", ino.ino, length, target))
		}
	}
	if target < ino.size {
		// Shrink: free whole blocks beyond the new end and zero the tail
		// of the boundary block so later growth reads zeros.
		bs := fs.cfg.BlockSize
		lastKeep := int64(-1)
		if target > 0 {
			lastKeep = (target - 1) / bs
		}
		var freed int64
		for bi, blk := range ino.blocks {
			if bi > lastKeep {
				delete(ino.blocks, bi)
				freeBlock(bs, blk)
				freed++
			}
		}
		if freed > 0 {
			_ = fs.chargeBlocks(cred, -freed)
		}
		if target%bs != 0 {
			if blk, ok := ino.blocks[lastKeep]; ok && !isZeroBlock(blk) {
				tail := blk[target%bs:]
				for i := range tail {
					tail[i] = 0
				}
			}
		}
	}
	// Growth is sparse: size changes, no blocks are allocated (holes read
	// as zeros and are charged only when written).
	ino.size = target
	fs.stampData(ino)
	return sys.OK
}

// FallocKeepSize is fallocate(2)'s FALLOC_FL_KEEP_SIZE mode bit.
const FallocKeepSize = 0x1

// Fallocate preallocates blocks for [off, off+length) on ino, charging
// them like writes. Without FallocKeepSize the file grows to cover the
// range; with it the size is left alone (posix_fallocate-style
// preallocation past EOF).
func (fs *FS) Fallocate(cred Cred, ino *Inode, mode int, off, length int64) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.hitRegion("ext4_fallocate")
	if ino.typ != TypeFile {
		return sys.ENODEV
	}
	if fs.cfg.ReadOnly {
		return sys.EROFS
	}
	if off < 0 || length <= 0 {
		return sys.EINVAL
	}
	if mode&^FallocKeepSize != 0 {
		return sys.ENOTSUP
	}
	end := off + length
	if end < 0 || end > fs.cfg.MaxFileSize {
		return sys.EFBIG
	}
	bs := fs.cfg.BlockSize
	firstBlk, lastBlk := off/bs, (end-1)/bs
	var newBlocks int64
	for bi := firstBlk; bi <= lastBlk; bi++ {
		if _, ok := ino.blocks[bi]; !ok {
			newBlocks++
		}
	}
	if newBlocks > 0 {
		if e := fs.chargeBlocks(cred, newBlocks); e != sys.OK {
			return e
		}
		if ino.blocks == nil {
			ino.blocks = newBlockMap(newBlocks)
		}
		for bi := firstBlk; bi <= lastBlk; bi++ {
			if _, ok := ino.blocks[bi]; !ok {
				ino.blocks[bi] = zeroFilledBlock(bs)
			}
		}
	}
	if mode&FallocKeepSize == 0 && end > ino.size {
		ino.size = end
	}
	fs.stampData(ino)
	return sys.OK
}

// MarkBadBlock flags the file at path as having a medium error so reads hit
// the ext4_get_branch path. Used by fault-injection workloads and tests.
func (fs *FS) MarkBadBlock(base *Inode, cred Cred, path string) sys.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	res, e := fs.resolve(base, cred, path, resolveOpts{followLast: true})
	if e != sys.OK {
		return e
	}
	res.ino.badBlock = true
	return sys.OK
}
