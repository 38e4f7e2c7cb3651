package workload

import (
	"fmt"
	"math/rand"

	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
)

// Sdet emulates the SPEC SDM Sdet benchmark of the paper's figure 6:
// randomly generated scripts of user commands "designed to emulate a
// typical software-development environment (e.g., editing, compiling, file
// creation and various UNIX utilities)", executed at increasing
// concurrency; the metric is scripts/hour.
type Sdet struct {
	CommandsPerScript int
	Seed              int64
	// ExecOverhead models the fork+exec CPU work of each command.
	ExecOverhead sim.Duration
	// Binaries is the number of shared command binaries; each exec pages
	// one in through the buffer cache, so concurrent scripts warm the
	// cache for each other — the overlap that makes SDET throughput rise
	// with concurrency.
	Binaries    int
	BinaryBytes int
}

// DefaultSdet returns the standard configuration.
func DefaultSdet() Sdet {
	return Sdet{
		CommandsPerScript: 120,
		Seed:              1981,
		ExecOverhead:      6 * sim.Millisecond,
		Binaries:          24,
		BinaryBytes:       40 << 10,
	}
}

// sdetCommand is one entry in the predetermined function mix.
type sdetCommand struct {
	weight int
	run    func(s *sdetScript, p *sim.Proc) error
}

// sdetScript is the per-script execution state. buf and data are the
// script's scratch blocks — each script runs on one proc, so reads land in
// buf and write payloads are staged in data without per-command
// allocation. They stay distinct because the edit command reads into buf
// while writing fresh content.
type sdetScript struct {
	fs    *ffs.FS
	cpu   *sim.CPU
	rng   *rand.Rand
	home  ffs.Ino
	seq   int
	files []string // files currently existing in the home directory
	buf   []byte   // read scratch
	data  []byte   // write-payload scratch
}

func (s *sdetScript) newName(prefix string) string {
	s.seq++
	return fmt.Sprintf("%s%d", prefix, s.seq)
}

// fill returns n bytes of the deterministic content pattern for the
// script's current seq, staged in the reusable payload scratch.
func (s *sdetScript) fill(n int) []byte {
	if n > len(s.data) {
		s.data = make([]byte, n)
	}
	b := s.data[:n]
	fillContent(b, s.seq)
	return b
}

func (s *sdetScript) pickFile() (string, bool) {
	if len(s.files) == 0 {
		return "", false
	}
	return s.files[s.rng.Intn(len(s.files))], true
}

// The function mix, loosely after the published SDET mix: heavy on small
// file creation, editing and searching, with occasional compiles and
// directory operations.
var sdetMix = []sdetCommand{
	{15, func(s *sdetScript, p *sim.Proc) error { // touch: create a small file
		name := s.newName("f")
		ino, err := s.fs.Create(p, s.home, name)
		if err != nil {
			return err
		}
		s.files = append(s.files, name)
		return s.fs.WriteAt(p, ino, 0, s.fill(500+s.rng.Intn(4000)))
	}},
	{20, func(s *sdetScript, p *sim.Proc) error { // edit: read-modify-write
		name, ok := s.pickFile()
		if !ok {
			return nil
		}
		ino, err := s.fs.Lookup(p, s.home, name)
		if err != nil {
			return nil
		}
		n, _ := s.fs.ReadAt(p, ino, 0, s.buf)
		s.cpu.Use(p, 10*sim.Millisecond) // editor startup + buffer work
		return s.fs.WriteAt(p, ino, uint64(n), s.fill(512))
	}},
	{10, func(s *sdetScript, p *sim.Proc) error { // rm
		if len(s.files) == 0 {
			return nil
		}
		i := s.rng.Intn(len(s.files))
		name := s.files[i]
		s.files = append(s.files[:i], s.files[i+1:]...)
		return s.fs.Unlink(p, s.home, name)
	}},
	{10, func(s *sdetScript, p *sim.Proc) error { // cp
		name, ok := s.pickFile()
		if !ok {
			return nil
		}
		src, err := s.fs.Lookup(p, s.home, name)
		if err != nil {
			return nil
		}
		dst := s.newName("c")
		ino, err := s.fs.Create(p, s.home, dst)
		if err != nil {
			return err
		}
		s.files = append(s.files, dst)
		n, _ := s.fs.ReadAt(p, src, 0, s.buf)
		return s.fs.WriteAt(p, ino, 0, s.buf[:n])
	}},
	{8, func(s *sdetScript, p *sim.Proc) error { // cc: a small compile
		name, ok := s.pickFile()
		if !ok {
			return nil
		}
		ino, err := s.fs.Lookup(p, s.home, name)
		if err != nil {
			return nil
		}
		s.fs.ReadAt(p, ino, 0, s.buf)
		s.cpu.Use(p, 300*sim.Millisecond)
		obj := s.newName("o")
		oino, err := s.fs.Create(p, s.home, obj)
		if err != nil {
			return err
		}
		s.files = append(s.files, obj)
		return s.fs.WriteAt(p, oino, 0, s.fill(6000))
	}},
	{15, func(s *sdetScript, p *sim.Proc) error { // ls
		ents, err := s.fs.ReadDir(p, s.home)
		if err != nil {
			return err
		}
		s.cpu.Use(p, sim.Duration(len(ents))*sim.Millisecond)
		return nil
	}},
	{12, func(s *sdetScript, p *sim.Proc) error { // grep: read a few files
		buf := s.buf
		for i := 0; i < 3; i++ {
			name, ok := s.pickFile()
			if !ok {
				return nil
			}
			ino, err := s.fs.Lookup(p, s.home, name)
			if err != nil {
				continue
			}
			s.fs.ReadAt(p, ino, 0, buf)
			s.cpu.Use(p, 4*sim.Millisecond)
		}
		return nil
	}},
	{5, func(s *sdetScript, p *sim.Proc) error { // mkdir-rmdir
		name := s.newName("d")
		if _, err := s.fs.Mkdir(p, s.home, name); err != nil {
			return err
		}
		return s.fs.Rmdir(p, s.home, name)
	}},
	{5, func(s *sdetScript, p *sim.Proc) error { // mv
		name, ok := s.pickFile()
		if !ok {
			return nil
		}
		dst := s.newName("m")
		if err := s.fs.Rename(p, s.home, name, s.home, dst); err != nil {
			return nil
		}
		for i, f := range s.files {
			if f == name {
				s.files[i] = dst
			}
		}
		return nil
	}},
}

// SetupBinaries creates the shared command binaries under parent (once per
// system) and returns their directory. Call before running scripts and
// evict the cache to start cold, as a fresh boot would.
func (cfg Sdet) SetupBinaries(p *sim.Proc, fs *ffs.FS, parent ffs.Ino) (ffs.Ino, error) {
	bin, err := fs.Mkdir(p, parent, "bin")
	if err != nil {
		if lerr, ok := err.(error); ok && lerr == ffs.ErrExist {
			return fs.Lookup(p, parent, "bin")
		}
		return 0, err
	}
	for i := 0; i < cfg.Binaries; i++ {
		ino, err := fs.Create(p, bin, fmt.Sprintf("cmd%02d", i))
		if err != nil {
			return 0, err
		}
		if err := fs.WriteAt(p, ino, 0, content(9000+i, cfg.BinaryBytes)); err != nil {
			return 0, err
		}
	}
	fs.Sync(p)
	return bin, nil
}

// RunScript executes one script in its own home directory and returns any
// error. Scripts are deterministic per (Seed, scriptID). binDir (from
// SetupBinaries) holds the command binaries paged in on each exec; pass 0
// to skip paging.
func (cfg Sdet) RunScript(p *sim.Proc, fs *ffs.FS, parent ffs.Ino, binDir ffs.Ino, scriptID int) error {
	home, err := fs.Mkdir(p, parent, fmt.Sprintf("sdet%d", scriptID))
	if err != nil {
		return err
	}
	s := &sdetScript{
		fs:   fs,
		cpu:  fs.CPU(),
		rng:  rand.New(rand.NewSource(cfg.Seed + int64(scriptID)*7919)),
		home: home,
		buf:  make([]byte, 8192),
		data: make([]byte, 8192),
	}
	total := 0
	for _, c := range sdetMix {
		total += c.weight
	}
	pagein := make([]byte, 16<<10)
	for i := 0; i < cfg.CommandsPerScript; i++ {
		s.cpu.Use(p, cfg.ExecOverhead)
		if binDir != 0 && cfg.Binaries > 0 {
			// Page in the command's binary (text pages shared across
			// scripts through the buffer cache).
			name := fmt.Sprintf("cmd%02d", s.rng.Intn(cfg.Binaries))
			if ino, err := fs.Lookup(p, binDir, name); err == nil {
				fs.ReadAt(p, ino, 0, pagein)
			}
		}
		pick := s.rng.Intn(total)
		for _, c := range sdetMix {
			pick -= c.weight
			if pick < 0 {
				if err := c.run(s, p); err != nil {
					return err
				}
				break
			}
		}
	}
	// Scripts end by cleaning their work area.
	for _, name := range s.files {
		fs.Unlink(p, s.home, name)
	}
	return nil
}
