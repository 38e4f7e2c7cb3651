package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// modulePrefix marks a function of this repository in a profile; the
// benchmark itself is package main.
const modulePrefix = "metaupdate/"

// layers are the buckets host CPU time is attributed to.
var layers = []string{"sim", "disk", "dev", "cache", "ffs", "ordering", "workload", "dmeta", "fsck", "runtime", "other"}

// layerOf maps a repository package (last path element) to its layer. A
// package missing here also lands in "other"; every package that feeds
// "other" is printed by name and a test requires each package directory
// of the repository to be listed, so a new package cannot vanish from the
// attribution unnoticed.
var layerOf = map[string]string{
	"sim":      "sim",
	"disk":     "disk",
	"fault":    "disk",
	"dev":      "dev",
	"cache":    "cache",
	"ffs":      "ffs",
	"ordering": "ordering",
	"core":     "ordering",
	"jlog":     "ordering",
	"nvram":    "ordering",
	"workload": "workload",
	"scenario": "workload",
	"arrival":  "workload",
	"dmeta":    "dmeta",
	"simnet":   "dmeta",
	"fsck":     "fsck",
	"crashmc":  "fsck",
	// Not layers of the simulated system: observers, assembly, reporting,
	// and the benchmark's own code.
	"obs":     "other",
	"trace":   "other",
	"fsim":    "other",
	"harness": "other",
	"plot":    "other",
	"bench":   "other",
}

// packageOf returns the repository package of a profiled function name
// ("metaupdate/internal/cache.(*Cache).makeRoom" → "cache", "main.runCopy"
// → "bench"), or "" for a function outside the repository.
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	path := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			path = fn[:slash+dot]
		}
	}
	return path[strings.LastIndexByte(path, '/')+1:]
}

// stackSample is one profile sample: its frames leaf first, and its count.
type stackSample struct {
	frames []string
	count  int64
}

// attribute gives each sample to the layer of the innermost repository
// frame on its stack, so sort.* under cache.makeRoom counts as cache and
// memclr under disk.New as disk; stacks with no repository frame (GC
// workers, the scheduler) are "runtime". It returns each layer's share of
// all samples and the packages that fed "other".
func attribute(samples []stackSample) (shares map[string]float64, other []string) {
	counts := map[string]int64{}
	otherPkgs := map[string]bool{}
	var total int64
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.frames {
			if pkg := packageOf(fn); pkg != "" {
				if layer = layerOf[pkg]; layer == "" {
					layer = "other"
				}
				if layer == "other" {
					otherPkgs[pkg] = true
				}
				break
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares = map[string]float64{}
	for _, l := range layers {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	for pkg := range otherPkgs {
		other = append(other, pkg)
	}
	sort.Strings(other)
	return shares, other
}

// attributeProfiles parses the CPU profiles of a repetition's timed phases
// and attributes their samples together.
func attributeProfiles(profiles [][]byte) (map[string]float64, []string, error) {
	var all []stackSample
	for _, p := range profiles {
		s, err := parseProfile(p)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, s...)
	}
	shares, other := attribute(all)
	return shares, other, nil
}

// parseProfile reads a gzipped pprof profile (profile.proto) just far
// enough to recover each sample's function-name stack. Only the fields
// used are decoded; everything else is skipped by wire type.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string table index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value: the first is the sample count
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("pprof: truncated profile")

// eachField walks the fields of one protobuf message. fn gets the field
// number and, by wire type, the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field, which arrives either packed
// (b non-nil) or one value at a time (v).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
