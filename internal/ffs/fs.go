package ffs

import (
	"errors"
	"fmt"

	"metaupdate/internal/cache"
	"metaupdate/internal/obs"
	"metaupdate/internal/sim"
)

// Errors returned by file system operations.
var (
	ErrExist    = errors.New("ffs: file exists")
	ErrNotExist = errors.New("ffs: no such file or directory")
	ErrNotDir   = errors.New("ffs: not a directory")
	ErrIsDir    = errors.New("ffs: is a directory")
	ErrNotEmpty = errors.New("ffs: directory not empty")
	ErrNoSpace  = errors.New("ffs: no space left on device")
	ErrNoInodes = errors.New("ffs: out of inodes")
	ErrNameLen  = errors.New("ffs: name too long")
)

// Costs is the CPU cost model, calibrated to the paper's 33 MHz i486
// (NCR 3433). Every file system operation charges these against the shared
// simulated CPU, which is what makes the compute columns of the paper's
// tables come out.
type Costs struct {
	Syscall      sim.Duration // entry/exit, argument copying
	DirScanEntry sim.Duration // per directory entry examined
	DirModify    sim.Duration // entry add/remove bookkeeping
	InodeOp      sim.Duration // inode encode/decode/update
	AllocOp      sim.Duration // bitmap search + update
	PerKBCopy    sim.Duration // user<->cache memory copy per KB
}

// DefaultCosts approximates the paper's hardware.
func DefaultCosts() Costs {
	return Costs{
		Syscall:      250 * sim.Microsecond,
		DirScanEntry: 3 * sim.Microsecond,
		DirModify:    400 * sim.Microsecond,
		InodeOp:      150 * sim.Microsecond,
		AllocOp:      500 * sim.Microsecond,
		PerKBCopy:    70 * sim.Microsecond,
	}
}

// Config parameterizes a mount.
type Config struct {
	// AllocInit enforces the allocation-initialization dependency for
	// regular file data blocks (rule 3 for data). Directory and indirect
	// blocks are always initialized in order, as in real FFS derivatives.
	AllocInit bool
	Costs     Costs
	// Obs, when non-nil, records an operation span for every FS entry
	// point (internal/obs). Nil disables tracing at zero cost.
	Obs *obs.Recorder
}

// FS is a mounted file system.
type FS struct {
	eng   *sim.Engine
	cpu   *sim.CPU
	cache *cache.Cache
	ord   Ordering
	cfg   Config
	sb    Superblock

	allocMu    sim.Mutex
	inoRotor   Ino
	dirCGRotor int32

	inodes sim.Table[inodeSlot] // per-inode state, by inode number
	dirIdx dirIndexes           // directory lookup from an index (dirindex.go)

	handed uint64              // the last id given to a record handed to the scheme
	open   map[uint64]struct{} // those not yet finished (Unfinished)
}

// inodeSlot is the file system's in-memory state of one inode.
type inodeSlot struct {
	lock sim.Mutex // the per-inode lock (lockInode)
	// cg is the inode's preferred allocation group plus one; 0 means none
	// recorded (preferredCG).
	cg int32
}

// Mount reads the superblock through the cache and attaches the ordering
// scheme.
func Mount(eng *sim.Engine, cpu *sim.CPU, c *cache.Cache, ord Ordering, cfg Config, p *sim.Proc) (*FS, error) {
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	fs := &FS{
		eng:    eng,
		cpu:    cpu,
		cache:  c,
		ord:    ord,
		cfg:    cfg,
		dirIdx: make(dirIndexes),
		open:   make(map[uint64]struct{}),
	}
	sbuf, err := c.Bread(p, 0, BlockFrags)
	if err != nil {
		return nil, err
	}
	if err := fs.sb.Decode(sbuf.Data); err != nil {
		return nil, err
	}
	fs.inoRotor = RootIno + 1
	fs.inodes = sim.NewTable[inodeSlot](int64(fs.sb.NInodes))
	c.Hooks = ord
	ord.Start(fs)
	return fs, nil
}

// Superblock returns the mounted superblock (read-only use).
func (fs *FS) Superblock() Superblock { return fs.sb }

// Cache returns the buffer cache.
func (fs *FS) Cache() *cache.Cache { return fs.cache }

// Engine returns the simulation engine.
func (fs *FS) Engine() *sim.Engine { return fs.eng }

// CPU returns the simulated processor.
func (fs *FS) CPU() *sim.CPU { return fs.cpu }

// Ordering returns the active scheme.
func (fs *FS) Ordering() Ordering { return fs.ord }

func (fs *FS) charge(p *sim.Proc, d sim.Duration) {
	if fs.cpu != nil {
		sp := obs.SpanOf(p)
		sp.Push(p, obs.StageCPU)
		fs.cpu.Use(p, d)
		sp.Pop(p)
	}
}

// begin opens the operation span for an FS entry point (nil when tracing
// is off or the entry is nested inside another traced operation).
func (fs *FS) begin(p *sim.Proc, op obs.Op) *obs.Span {
	return fs.cfg.Obs.Begin(p, op)
}

// end closes sp (no-op on nil).
func (fs *FS) end(p *sim.Proc, sp *obs.Span) {
	fs.cfg.Obs.End(p, sp)
}

// checkIno panics on an inode number outside the inode table.
func (fs *FS) checkIno(ino Ino) {
	if ino == 0 || uint32(ino) >= fs.sb.NInodes {
		panic(fmt.Sprintf("ffs: inode %d out of range", ino))
	}
}

// inode returns ino's in-memory state.
func (fs *FS) inode(ino Ino) *inodeSlot {
	fs.checkIno(ino)
	return fs.inodes.At(int64(ino))
}

// lockInode acquires the per-inode lock.
func (fs *FS) lockInode(p *sim.Proc, ino Ino) {
	mu := &fs.inode(ino).lock
	sp := obs.SpanOf(p)
	sp.Push(p, obs.StageLock)
	mu.Lock(p)
	sp.Pop(p)
}

// lockAlloc acquires the allocation lock (span-tagged like lockInode;
// unlock stays a plain fs.allocMu.Unlock since it never blocks).
func (fs *FS) lockAlloc(p *sim.Proc) {
	sp := obs.SpanOf(p)
	sp.Push(p, obs.StageLock)
	fs.allocMu.Lock(p)
	sp.Pop(p)
}

func (fs *FS) unlockInode(ino Ino) {
	fs.inode(ino).lock.Unlock(fs.eng)
}

// lockPair locks two inodes in canonical order (deadlock avoidance for
// rename).
func (fs *FS) lockPair(p *sim.Proc, a, b Ino) {
	if a == b {
		fs.lockInode(p, a)
		return
	}
	if a > b {
		a, b = b, a
	}
	fs.lockInode(p, a)
	fs.lockInode(p, b)
}

func (fs *FS) unlockPair(a, b Ino) {
	if a == b {
		fs.unlockInode(a)
		return
	}
	fs.unlockInode(a)
	fs.unlockInode(b)
}

// inodeBuf returns the (held) buffer holding ino's inode-table block and
// the byte offset of the inode within it. The caller must release it.
func (fs *FS) inodeBuf(p *sim.Proc, ino Ino) (*cache.Buf, int, error) {
	fs.checkIno(ino)
	frag, off := fs.sb.InodeFrag(ino)
	b, err := fs.cache.Bread(p, int64(frag), BlockFrags)
	if err != nil {
		return nil, 0, err
	}
	return b.Hold(), off, nil
}

// getInode decodes ino from its table block; the returned buffer is held
// and must be released by the caller.
func (fs *FS) getInode(p *sim.Proc, ino Ino) (Inode, *cache.Buf, int, error) {
	b, off, err := fs.inodeBuf(p, ino)
	if err != nil {
		return Inode{}, nil, 0, err
	}
	var ip Inode
	ip.decode(b.Data[off : off+InodeSize])
	return ip, b, off, nil
}

// putInode encodes ip back into its table block after waiting out any
// write lock. The caller routes the write through an ordering hook.
func (fs *FS) putInode(p *sim.Proc, ip *Inode, b *cache.Buf, off int) {
	fs.cache.PrepareModify(p, b)
	ip.encode(b.Data[off : off+InodeSize])
}

// Stat returns the inode's current state (a read-only operation).
func (fs *FS) Stat(p *sim.Proc, ino Ino) (Inode, error) {
	sp := fs.begin(p, obs.OpStat)
	defer fs.end(p, sp)
	fs.charge(p, fs.cfg.Costs.Syscall+fs.cfg.Costs.InodeOp)
	ip, b, _, err := fs.getInode(p, ino)
	if err != nil {
		return Inode{}, err
	}
	fs.rele(b)
	if !ip.Allocated() {
		return ip, ErrNotExist
	}
	return ip, nil
}

// Sync flushes all dirty state (delayed writes, workitems) and waits for
// the disk to go idle. Benchmarks use it to bound an experiment.
func (fs *FS) Sync(p *sim.Proc) {
	sp := fs.begin(p, obs.OpSync)
	defer fs.end(p, sp)
	fs.cache.SyncAll(p, 64)
}
