package vfs

import (
	"iocov/internal/sys"
)

// Inode is a filesystem object: regular file, directory, or symlink. Fields
// are guarded by the owning FS's mutex; callers outside the package interact
// with inodes only through FS and kernel methods plus the read-only
// accessors below.
type Inode struct {
	ino   uint64
	typ   NodeType
	mode  uint32 // permission bits incl. setuid/setgid/sticky
	uid   uint32
	gid   uint32
	nlink int

	size int64
	// blocks holds file data as lazily allocated BlockSize chunks keyed by
	// block index; unallocated blocks read as zeros (sparse files). An
	// allocated block of zeros refers to the shared, read-only zeroBlock
	// (see blockpool.go) and is copied on its first non-zero write.
	blocks map[int64][]byte

	children map[string]*Inode
	parent   *Inode

	target string // symlink target

	xattrs     map[string][]byte
	xattrBytes int // total name+value bytes stored, vs. XattrCapacity

	// badBlock marks a simulated medium error used by the GetBranchErrno
	// injected bug.
	badBlock bool

	// generation increments on every mutation; the differential tester
	// uses it to detect unexpected state changes.
	generation uint64

	// atime/mtime/ctime are logical timestamps (ticks of the filesystem's
	// monotonic clock): access, data modification, and metadata change.
	atime uint64
	mtime uint64
	ctime uint64
}

func (fs *FS) newInode(typ NodeType, mode uint32, cred Cred) *Inode {
	ino := &Inode{
		ino:    fs.nextIno,
		typ:    typ,
		mode:   mode & sys.PermMask,
		uid:    cred.UID,
		gid:    cred.GID,
		nlink:  1,
		xattrs: make(map[string][]byte),
	}
	fs.nextIno++
	now := fs.tick()
	ino.atime, ino.mtime, ino.ctime = now, now, now
	if typ == TypeDir {
		ino.children = make(map[string]*Inode)
		ino.nlink = 2
	}
	return ino
}

// Ino returns the inode number.
func (i *Inode) Ino() uint64 { return i.ino }

// Type returns the inode type.
func (i *Inode) Type() NodeType { return i.typ }

// Mode returns the permission bits.
func (i *Inode) Mode() uint32 { return i.mode }

// Size returns the file size in bytes (0 for non-files).
func (i *Inode) Size() int64 { return i.size }

// Nlink returns the link count.
func (i *Inode) Nlink() int { return i.nlink }

// Owner returns the owning uid/gid.
func (i *Inode) Owner() (uid, gid uint32) { return i.uid, i.gid }

// Generation returns the inode's mutation counter.
func (i *Inode) Generation() uint64 { return i.generation }

// Times returns the logical access, modification, and change timestamps.
func (i *Inode) Times() (atime, mtime, ctime uint64) {
	return i.atime, i.mtime, i.ctime
}

func (i *Inode) touch() { i.generation++ }

// access permission bits for checkAccess.
const (
	permRead  = 4
	permWrite = 2
	permExec  = 1
)

// checkAccess implements the standard owner/group/other permission check.
// UID 0 passes read/write unconditionally and exec if any exec bit is set.
func checkAccess(ino *Inode, cred Cred, want uint32) sys.Errno {
	if cred.UID == 0 {
		if want&permExec != 0 && ino.typ == TypeFile && ino.mode&0o111 == 0 {
			return sys.EACCES
		}
		return sys.OK
	}
	var shift uint
	switch {
	case cred.UID == ino.uid:
		shift = 6
	case cred.GID == ino.gid:
		shift = 3
	default:
		shift = 0
	}
	granted := (ino.mode >> shift) & 7
	if granted&want != want {
		return sys.EACCES
	}
	return sys.OK
}

// Stat is the metadata snapshot returned by FS.Stat and kernel stat calls.
type Stat struct {
	Ino   uint64
	Type  NodeType
	Mode  uint32
	UID   uint32
	GID   uint32
	Size  int64
	Nlink int
	// Blocks is the allocation footprint in filesystem blocks.
	Blocks int64
	// Atime/Mtime/Ctime are logical timestamps (filesystem clock ticks):
	// last access, last data modification, last metadata change.
	Atime uint64
	Mtime uint64
	Ctime uint64
}

func (fs *FS) statLocked(ino *Inode) Stat {
	return Stat{
		Ino:    ino.ino,
		Type:   ino.typ,
		Mode:   ino.mode,
		UID:    ino.uid,
		GID:    ino.gid,
		Size:   ino.size,
		Nlink:  ino.nlink,
		Blocks: int64(len(ino.blocks)),
		Atime:  ino.atime,
		Mtime:  ino.mtime,
		Ctime:  ino.ctime,
	}
}
