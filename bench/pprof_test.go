package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"metaupdate/internal/cache.(*Cache).makeRoom":         "cache",
		"metaupdate/internal/sim.(*Engine).Spawn.func1":       "sim",
		"metaupdate/fsim.(*System).RunUsers.func1":            "fsim",
		"metaupdate/internal/crashmc.(*Recorder).Explore":     "crashmc",
		"metaupdate/internal/newpkg.Do":                       "newpkg",
		"main.runCopy.func1":                                  "bench",
		"sort.insertionSort_func":                             "",
		"runtime.memclrNoHeapPointers":                        "",
		"internal/runtime/maps.(*Map).getWithoutKeySmallFast": "",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttribute: each sample goes to the layer of its innermost repository
// frame; a package outside the map lands in "other" and is named.
func TestAttribute(t *testing.T) {
	samples := []stackSample{
		// sort under cache.makeRoom is cache time.
		{[]string{"sort.insertionSort_func", "sort.Slice", "metaupdate/internal/cache.(*Cache).makeRoom", "metaupdate/internal/ffs.(*FS).WriteAt", "metaupdate/internal/workload.CopyTree", "main.runCopy.func1"}, 40},
		// memclr under disk.New is disk time.
		{[]string{"runtime.memclrNoHeapPointers", "metaupdate/internal/disk.New", "metaupdate/fsim.New", "main.newMachine"}, 10},
		// folded packages.
		{[]string{"metaupdate/internal/core.(*SoftUpdates).WriteDone", "metaupdate/internal/cache.(*Cache).writeDone"}, 5},
		{[]string{"metaupdate/internal/jlog.Checksum", "metaupdate/internal/ordering.(*Journal).commit"}, 5},
		{[]string{"metaupdate/internal/arrival.(*Gen).Next", "metaupdate/internal/scenario.Drive.func1"}, 4},
		{[]string{"metaupdate/internal/simnet.(*Endpoint).Call", "metaupdate/internal/dmeta.(*Cluster).call"}, 6},
		{[]string{"metaupdate/internal/crashmc.(*Recorder).Explore", "main.runCrash.func1"}, 10},
		// no repository frame: the Go runtime.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 10},
		// the benchmark's own code, a known observer, and an unknown package.
		{[]string{"runtime.mallocgc", "main.summarize", "main.main"}, 4},
		{[]string{"metaupdate/internal/obs.(*Span).Push", "metaupdate/internal/cache.(*Cache).Bread"}, 3},
		{[]string{"metaupdate/internal/newpkg.Do", "metaupdate/internal/ffs.(*FS).Create"}, 3},
	}
	shares, other := attribute(samples)
	want := map[string]float64{
		"cache": 0.40, "disk": 0.10, "ordering": 0.10, "workload": 0.04, "dmeta": 0.06,
		"fsck": 0.10, "runtime": 0.10, "other": 0.10, "sim": 0, "dev": 0, "ffs": 0,
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if len(shares) != len(layers) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v: want exactly the %d layers, summing to 1", shares, len(layers))
	}
	if wantOther := []string{"bench", "newpkg", "obs"}; !reflect.DeepEqual(other, wantOther) {
		t.Errorf("packages feeding other = %v, want %v", other, wantOther)
	}
}

// TestLayerMapCoversRepository: every package directory of the repository
// has a layer, and every layer named in the map exists.
func TestLayerMapCoversRepository(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("..", "internal", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no packages under ../internal: %v", err)
	}
	pkgs := []string{"fsim", "bench"}
	for _, d := range dirs {
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			pkgs = append(pkgs, filepath.Base(d))
		}
	}
	for _, pkg := range pkgs {
		if layerOf[pkg] == "" {
			t.Errorf("package %s has no layer in layerOf: its CPU time would land in host_share.other unannounced", pkg)
		}
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range layerOf {
		if !known[l] {
			t.Errorf("layerOf[%s] = %q is not a layer", pkg, l)
		}
	}
}

// Minimal profile.proto encoder, enough to build a profile by hand.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func (b *pb) packed(field int, vals ...uint64) {
	var p []byte
	for _, v := range vals {
		p = binary.AppendUvarint(p, v)
	}
	b.bytesField(field, p)
}

// TestParseProfile decodes a hand-built profile: two samples over three
// locations, one of which holds an inlined call (two lines).
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "sort.Slice", "metaupdate/internal/cache.(*Cache).makeRoom", "main.runCopy", "runtime.gcBgMarkWorker"}
	var prof pb
	var st pb
	st.varint(1, 1)
	st.varint(2, 2)
	prof.bytesField(1, st.Bytes()) // sample_type
	sample := func(count uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, count, count*10_000_000)
		prof.bytesField(2, s.Bytes())
	}
	sample(7, 1, 2)
	sample(3, 3)
	location := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(1, id)
		l.varint(3, 0x1000+id)
		for _, fn := range fns {
			var line pb
			line.varint(1, fn)
			line.varint(2, 42)
			l.bytesField(4, line.Bytes())
		}
		prof.bytesField(4, l.Bytes())
	}
	location(1, 1, 2) // sort.Slice inlined into makeRoom
	location(2, 3)
	location(3, 4)
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5, 4: 6} {
		var f pb
		f.varint(1, id)
		f.varint(2, name)
		prof.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"sort.Slice", "metaupdate/internal/cache.(*Cache).makeRoom", "main.runCopy"}, 7},
		{[]string{"runtime.gcBgMarkWorker"}, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	shares, _ := attribute(got)
	if shares["cache"] != 0.7 || shares["runtime"] != 0.3 {
		t.Errorf("shares %v, want cache 0.7 and runtime 0.3", shares)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}
