package fsim

import (
	"fmt"
	"slices"
	"strings"

	"metaupdate/internal/core"
	"metaupdate/internal/dev"
	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/nvram"
	"metaupdate/internal/ordering"
)

// Scheme selects a metadata update ordering implementation.
type Scheme int

// The five schemes of the paper's performance comparison (section 5), then
// the extensions.
const (
	NoOrder Scheme = iota
	Conventional
	SchedulerFlag
	SchedulerChains
	SoftUpdates
	// NVRAM is the section 7 extension: delayed writes everywhere, with
	// the ordering-relevant states journaled to battery-backed RAM and
	// replayed over the media after a crash.
	NVRAM
	// Journaling is the classic write-ahead alternative the paper could not
	// benchmark: delayed writes everywhere, ordering-relevant states
	// appended to a wrapping on-disk log region as checksummed begin/commit
	// transactions, home-location writeback gated on the commit, and
	// crash-time recovery by journal replay.
	Journaling
	// AsyncDurability is the AsyncFS-inspired decoupling: operations become
	// visible immediately (scheduler-chains write pattern, so crash images
	// stay rule-consistent) while durability is acknowledged asynchronously
	// through a notification queue, bounded by an in-flight window with
	// batched group commit.
	AsyncDurability
)

// Schemes lists the paper's five in presentation order, then the two
// post-paper schemes (journaling and decoupled durability).
var Schemes = []Scheme{Conventional, SchedulerFlag, SchedulerChains, SoftUpdates, NoOrder, Journaling, AsyncDurability}

// schemeInfo declares one scheme. Everything this package, the harness and
// the commands know about a scheme by its number is a field here; a new
// scheme is a Scheme constant, an entry, and (to be recorded by the
// benchmarks) a System field for build to fill.
type schemeInfo struct {
	name  string   // Scheme.String: table rows, test names
	slugs []string // command-line names, the canonical one first

	// mode is the driver mode the scheme's writes rely on; dev.ModeIgnore,
	// the zero value, also replaces it under Options.IgnoreOrdering.
	mode dev.OrderMode
	// journal formats the file system with Options.JournalFrags of log.
	journal bool

	// paper sets the section 5 configuration, unless Options.Explicit;
	// fixed then applies what the scheme needs whatever the caller asked for.
	paper, fixed func(o *Options)
	// build returns a fresh ordering instance (it carries per-mount state
	// and is never shared between machines), noting it in s.
	build func(o *Options, s *System) ffs.Ordering

	// recover is the crash-recovery step that precedes fsck, nil when fsck
	// alone recovers the scheme; it returns how many replays ("journal
	// transactions") it applied to img. With offMedia it needs the crashed
	// System — the NVRAM log survives there, not on the media — otherwise s
	// may be nil.
	recover  func(s *System, img []byte) int
	replays  string
	offMedia bool
}

var schemeTable = [...]schemeInfo{
	NoOrder: {
		name: "No Order", slugs: []string{"noorder"},
		build: func(*Options, *System) ffs.Ordering { return ordering.NewNoOrder() },
	},
	Conventional: {
		name: "Conventional", slugs: []string{"conventional"},
		build: func(*Options, *System) ffs.Ordering { return ordering.NewConventional() },
	},
	SchedulerFlag: {
		name: "Scheduler Flag", slugs: []string{"flag"}, mode: dev.ModeFlag,
		paper: func(o *Options) { o.Sem, o.NR, o.CB = dev.SemPart, true, true },
		build: func(*Options, *System) ffs.Ordering { return ordering.NewFlag() },
	},
	SchedulerChains: {
		name: "Scheduler Chains", slugs: []string{"chains"}, mode: dev.ModeChains,
		paper: func(o *Options) { o.CB = true },
		build: func(o *Options, _ *System) ffs.Ordering {
			ch := ordering.NewChains()
			ch.BarrierFrees = o.BarrierFrees
			return ch
		},
	},
	SoftUpdates: {
		name: "Soft Updates", slugs: []string{"softupdates", "soft"},
		paper: func(o *Options) { o.AllocInit = true },
		// Soft updates substitutes rolled-back copies as write sources
		// itself; the -CB machinery's concurrent per-buffer snapshots would
		// break its covered-update tracking, so it is forced off.
		fixed: func(o *Options) { o.CB = false },
		build: func(_ *Options, s *System) ffs.Ordering {
			s.Soft = core.New()
			return s.Soft
		},
	},
	NVRAM: {
		name: "NVRAM", slugs: []string{"nvram"},
		build: func(_ *Options, s *System) ffs.Ordering {
			s.NV = nvram.New()
			return s.NV
		},
		recover: func(s *System, img []byte) int { return s.NV.Log().Replay(img) },
		replays: "NVRAM records", offMedia: true,
	},
	Journaling: {
		name: "Journaling", slugs: []string{"journaling", "journal"}, mode: dev.ModeChains, journal: true,
		fixed: func(o *Options) {
			// The journal's begin→commit→home ordering rides the driver's
			// explicit dependency lists; -CB is forced off so a journaled
			// buffer's eventual home write carries exactly the committed state
			// (modifications lock against in-flight writes).
			o.CB = false
			if o.JournalFrags == 0 {
				o.JournalFrags = int32(min(max(o.DiskBytes/(128<<10), 128), 4096))
			}
		},
		build: func(_ *Options, s *System) ffs.Ordering {
			s.Jnl = ordering.NewJournal()
			return s.Jnl
		},
		// Journaling's crash contract holds after recovery, not on the raw
		// image: committed transactions are replayed before any oracle looks.
		recover: func(_ *System, img []byte) int { return fsck.ReplayJournal(img) },
		replays: "journal transactions",
	},
	AsyncDurability: {
		name: "Async Durability", slugs: []string{"async", "asyncdurability"}, mode: dev.ModeChains,
		// Chains ordering underneath. -CB stays off by default: an in-flight
		// write then blocks modifications, which keeps the notification
		// bookkeeping trivially exact. The submit-time crediting in
		// ordering.Async is -CB-safe (a snapshot write carries the buffer's
		// state as of submission, so only waiters registered by then are
		// credited), so an Explicit configuration may enable CB — the
		// open-loop exhibits do, where the stall of naming operations against
		// the group-commit flusher's in-flight writes would otherwise convoy
		// the whole op stream.
		paper: func(o *Options) { o.CB = false },
		fixed: func(o *Options) {
			if o.AsyncWindow <= 0 {
				o.AsyncWindow = ordering.DefaultAsyncWindow
			}
			if o.AsyncInterval <= 0 {
				o.AsyncInterval = ordering.DefaultAsyncInterval
			}
		},
		build: func(o *Options, s *System) ffs.Ordering {
			s.Async = ordering.NewAsync(o.AsyncWindow, o.AsyncInterval)
			return s.Async
		},
	},
}

// info returns s's table entry, nil for a number that names no scheme.
func (s Scheme) info() *schemeInfo {
	if s < 0 || int(s) >= len(schemeTable) {
		return nil
	}
	return &schemeTable[s]
}

func (s Scheme) String() string {
	if e := s.info(); e != nil {
		return e.name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Slug returns the scheme's canonical command-line name.
func (s Scheme) Slug() string { return s.info().slugs[0] }

// SchemeUsage is every scheme's canonical command-line name, "|"-separated,
// for flag help texts.
var SchemeUsage = func() string {
	var slugs []string
	for s := range schemeTable {
		slugs = append(slugs, Scheme(s).Slug())
	}
	return strings.Join(slugs, "|")
}()

// ParseScheme maps a command-line scheme name (case and surrounding space
// ignored) to its Scheme.
func ParseScheme(name string) (Scheme, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for s := range schemeTable {
		if slices.Contains(schemeTable[s].slugs, want) {
			return Scheme(s), nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (%s)", name, SchemeUsage)
}

// MediaRecovery returns the scheme's crash-recovery step as a function of
// the media image alone, for sweeps over many crash images of one run
// (crashmc.Config.Recover). Nil: fsck alone recovers the scheme. An error:
// recovery needs state a media image does not hold, and such a sweep would
// report the unrecovered images as violations.
func (s Scheme) MediaRecovery() (func(img []byte), error) {
	e := s.info()
	if e == nil || e.recover == nil {
		return nil, nil // New is what rejects an unknown scheme
	}
	if e.offMedia {
		return nil, fmt.Errorf("fsim: %v recovery replays %s held outside the media image, so crash images alone cannot be checked", s, e.replays)
	}
	return func(img []byte) { e.recover(nil, img) }, nil
}

// Recover runs the scheme's crash-recovery step on img, the image Crash
// returned — the step that precedes fsck — and says what it did ("replayed
// 12 journal transactions"); "" when fsck alone recovers the scheme.
func (s *System) Recover(img []byte) string {
	e := s.Opt.Scheme.info()
	if e.recover == nil {
		return ""
	}
	return fmt.Sprintf("replayed %d %s", e.recover(s, img), e.replays)
}
