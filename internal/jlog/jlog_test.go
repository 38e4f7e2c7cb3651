package jlog

import (
	"bytes"
	"testing"
)

// putTxn lays out one committed transaction at region-relative offset off
// and returns the offset just past its commit fragment.
func putTxn(region []byte, off int32, seq uint64, homes []HomeRun, payload []byte) int32 {
	begin := region[int64(off)*FragSize:]
	pf := EncodeBegin(begin, seq, homes)
	copy(region[int64(off+1)*FragSize:], payload)
	sum := Checksum(begin[:SectorSize], payload)
	EncodeCommit(region[int64(off+1+pf)*FragSize:], seq, pf, sum)
	return off + 2 + pf
}

func TestHeaderRoundTrip(t *testing.T) {
	buf := make([]byte, FragSize)
	want := Header{TailSeq: 0xdeadbeefcafe, TailOff: 37}
	EncodeHeader(buf, want)
	got, ok := DecodeHeader(buf)
	if !ok || got != want {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, want)
	}
	buf[9] ^= 1 // flip one tailSeq bit: the CRC must catch it
	if _, ok := DecodeHeader(buf); ok {
		t.Fatal("corrupted header decoded as valid")
	}
}

func TestBeginRoundTrip(t *testing.T) {
	buf := make([]byte, FragSize)
	homes := []HomeRun{{Frag: 44, NFrags: 2}, {Frag: 1000, NFrags: 1}}
	pf := EncodeBegin(buf, 9, homes)
	if pf != 3 {
		t.Fatalf("payload frags = %d, want 3", pf)
	}
	seq, gotPF, out, ok := DecodeBegin(buf, nil)
	if !ok || seq != 9 || gotPF != 3 || len(out) != 2 || out[0] != homes[0] || out[1] != homes[1] {
		t.Fatalf("round trip: seq=%d pf=%d homes=%v ok=%v", seq, gotPF, out, ok)
	}
	if TxnFrags(pf) != 5 {
		t.Fatalf("TxnFrags(%d) = %d, want 5", pf, TxnFrags(pf))
	}
}

// tornShapes are the transaction shapes the torn-write pins run over: the
// single-buffer transaction, a compound one whose images differ in size,
// and a trimmed one, whose runs are the changed spans of block-sized
// buffers at 40 and 56 and begin and end inside them.
var tornShapes = []struct {
	name  string
	homes []HomeRun
}{
	{"single", []HomeRun{{Frag: 40, NFrags: 1}}},
	{"compound", []HomeRun{{Frag: 40, NFrags: 2}, {Frag: 50, NFrags: 1}, {Frag: 60, NFrags: 8}}},
	{"trimmed", []HomeRun{{Frag: 43, NFrags: 1}, {Frag: 50, NFrags: 1}, {Frag: 58, NFrags: 3}}},
}

// tornFixture lays one committed transaction of the given shape at region
// offset 1 of a 24-fragment journal in a 72-fragment image whose home
// fragments hold 0xAA, and returns the image, the payload and the
// transaction's footprint in fragments.
func tornFixture(seq uint64, homes []HomeRun) (img, payload []byte, size int32) {
	const jFrags = 24
	img = make([]byte, 72*FragSize)
	var pf int32
	for _, h := range homes {
		copy(img[h.Frag*FragSize:], bytes.Repeat([]byte{0xAA}, int(h.NFrags)*FragSize))
		pf += h.NFrags
	}
	EncodeHeader(img, Header{TailSeq: seq, TailOff: 1})
	payload = make([]byte, int(pf)*FragSize)
	for i := range payload {
		payload[i] = byte(i*31 + i>>10)
	}
	return img, payload, putTxn(img[:jFrags*FragSize], 1, seq, homes, payload) - 1
}

// homesHold reports whether every home run of the image holds its slice of
// the payload.
func homesHold(img []byte, homes []HomeRun, payload []byte) bool {
	at := int64(0)
	for _, h := range homes {
		n := int64(h.NFrags) * FragSize
		if !bytes.Equal(img[h.Frag*FragSize:h.Frag*FragSize+n], payload[at:at+n]) {
			return false
		}
		at += n
	}
	return true
}

// restSame reports whether replay left everything outside the home runs as
// it was: the fragments around a trimmed run belong to the same buffer and
// are not the transaction's to write.
func restSame(before, after []byte, homes []HomeRun) bool {
	b, a := append([]byte(nil), before...), append([]byte(nil), after...)
	for _, h := range homes {
		clearTail(b[h.Frag*FragSize : (h.Frag+int64(h.NFrags))*FragSize])
		clearTail(a[h.Frag*FragSize : (h.Frag+int64(h.NFrags))*FragSize])
	}
	return bytes.Equal(a, b)
}

// TestTornCommitDiscarded is the torn-write pin for the commit record: a
// crash may leave any byte prefix of the commit fragment durable, with the
// remainder holding whatever was on the media before — here, adversarially,
// a stale but well-formed commit record from a previous journal lap whose
// checksum bytes all differ from the real one. For every prefix shorter
// than the full commit record the transaction must be discarded whole: zero
// transactions replayed and the image untouched. Once the record is
// complete the transaction applies in full — every member image. There is
// no prefix length that partially applies.
func TestTornCommitDiscarded(t *testing.T) {
	for _, shape := range tornShapes {
		t.Run(shape.name, func(t *testing.T) {
			pristine, payload, size := tornFixture(7, shape.homes)
			commitStart := int(size) * FragSize // begin at frag 1, commit last
			goodCommit := append([]byte(nil), pristine[commitStart:commitStart+FragSize]...)
			_, pf, realSum, _ := DecodeCommit(goodCommit)
			stale := make([]byte, FragSize)
			EncodeCommit(stale, 3, pf, ^realSum)

			for k := 0; k <= FragSize; k++ {
				img := append([]byte(nil), pristine...)
				copy(img[commitStart:], stale)
				copy(img[commitStart:], goodCommit[:k])
				before := append([]byte(nil), img...)
				n := Replay(img, 0, 24)
				if k >= commitSize {
					if n != 1 {
						t.Fatalf("prefix %d: replayed %d txns, want 1", k, n)
					}
					if !homesHold(img, shape.homes, payload) || !restSame(before, img, shape.homes) {
						t.Fatalf("prefix %d: home fragments not the journaled images, or others touched", k)
					}
				} else {
					if n != 0 {
						t.Fatalf("prefix %d: torn commit replayed %d txns, want 0", k, n)
					}
					if !bytes.Equal(img, before) {
						t.Fatalf("prefix %d: replay mutated the image with no committed txn", k)
					}
				}
			}
		})
	}
}

// TestTornBeginDiscarded: the begin sector is covered by the commit
// checksum, so a tear anywhere inside it — even past the record's own
// fields — must discard the transaction. Only the full first sector makes
// it valid (the fragment's second sector is never read).
func TestTornBeginDiscarded(t *testing.T) {
	for _, shape := range tornShapes {
		t.Run(shape.name, func(t *testing.T) {
			pristine, _, _ := tornFixture(2, shape.homes)
			const beginStart = 1 * FragSize
			goodBegin := append([]byte(nil), pristine[beginStart:beginStart+FragSize]...)

			for k := 0; k <= SectorSize; k += 16 {
				img := append([]byte(nil), pristine...)
				// Pre-write media content: all ones, so every short prefix leaves a
				// suffix that breaks the commit's checksum over the begin sector.
				for i := beginStart; i < beginStart+SectorSize; i++ {
					img[i] = 0xFF
				}
				copy(img[beginStart:], goodBegin[:k])
				n := Replay(img, 0, 24)
				want := 0
				if k >= SectorSize {
					want = 1
				}
				if n != want {
					t.Fatalf("begin prefix %d: replayed %d txns, want %d", k, n, want)
				}
			}
		})
	}
}

// TestTornLogWriteDiscarded is the torn-write pin for the write discipline:
// a transaction reaches the log as one request [begin | images | commit],
// and a crash leaves a sector prefix of it over whatever the previous lap
// left there — here a committed transaction of the same shape and an older
// sequence number, so every record the tear exposes is well-formed. Any
// strict prefix that stops short of the commit fragment's first sector must
// discard the transaction whole (nothing replayed, image untouched); from
// that sector on it applies in full.
func TestTornLogWriteDiscarded(t *testing.T) {
	for _, shape := range tornShapes {
		t.Run(shape.name, func(t *testing.T) {
			written, payload, size := tornFixture(9, shape.homes)
			lo, hi := 1*FragSize, int(1+size)*FragSize
			oldPayload := bytes.Repeat([]byte{0x33}, len(payload))
			commitSector := (hi - FragSize - lo) / SectorSize
			for k := 0; k <= (hi-lo)/SectorSize; k++ {
				img, _, _ := tornFixture(9, shape.homes) // header expects seq 9
				putTxn(img[:24*FragSize], 1, 5, shape.homes, oldPayload)
				copy(img[lo:], written[lo:lo+k*SectorSize])
				before := append([]byte(nil), img...)
				n := Replay(img, 0, 24)
				if k > commitSector {
					if n != 1 || !homesHold(img, shape.homes, payload) || !restSame(before, img, shape.homes) {
						t.Fatalf("%d of %d sectors: replayed %d txns, want the whole transaction", k, (hi-lo)/SectorSize, n)
					}
				} else if n != 0 || !bytes.Equal(img, before) {
					t.Fatalf("%d of %d sectors: torn log write replayed %d txns (or touched the image), want it discarded", k, (hi-lo)/SectorSize, n)
				}
			}
		})
	}
}

// TestReplayWrapScan: a transaction that does not fit before the region end
// wraps to offset 1; the replay scan must follow it there and apply both in
// sequence order.
func TestReplayWrapScan(t *testing.T) {
	const jFrags = 8
	const homeFrag = 20
	img := make([]byte, 24*FragSize)
	region := img[:jFrags*FragSize]
	EncodeHeader(img, Header{TailSeq: 5, TailOff: 5})
	p1 := bytes.Repeat([]byte{0x11}, FragSize)
	p2 := bytes.Repeat([]byte{0x22}, FragSize)
	putTxn(region, 5, 5, []HomeRun{{Frag: homeFrag, NFrags: 1}}, p1) // frags 5..7
	putTxn(region, 1, 6, []HomeRun{{Frag: homeFrag, NFrags: 1}}, p2) // wrapped: frags 1..3
	if n := Replay(img, 0, jFrags); n != 2 {
		t.Fatalf("replayed %d txns, want 2 (wrap not followed)", n)
	}
	if !bytes.Equal(img[homeFrag*FragSize:(homeFrag+1)*FragSize], p2) {
		t.Fatal("home fragment does not hold the later transaction's image")
	}
}

// TestReplayRejectsHomeRunPastImage: a checksummed transaction whose home
// run lies past the image end — wholly, or straddling it — is invalid, the
// same as one with a bad checksum. Replay stops there: it applies the
// transactions before it, nothing of it, and none after it, and it neither
// panics nor writes a truncated image.
func TestReplayRejectsHomeRunPastImage(t *testing.T) {
	const jFrags = 12
	const imgFrags = 24
	for _, bad := range []HomeRun{
		{Frag: 1000, NFrags: 1},         // wholly past the end
		{Frag: imgFrags - 1, NFrags: 2}, // straddles the end
		{Frag: imgFrags, NFrags: 1},     // starts at the end
		{Frag: 1<<62 + 1, NFrags: 1},    // overflows a byte offset
	} {
		img := make([]byte, imgFrags*FragSize)
		region := img[:jFrags*FragSize]
		EncodeHeader(img, Header{TailSeq: 5, TailOff: 1})
		p1 := bytes.Repeat([]byte{0x11}, FragSize)
		p2 := bytes.Repeat([]byte{0x22}, int(bad.NFrags)*FragSize)
		p3 := bytes.Repeat([]byte{0x33}, FragSize)
		off := putTxn(region, 1, 5, []HomeRun{{Frag: 20, NFrags: 1}}, p1)
		off = putTxn(region, off, 6, []HomeRun{bad}, p2)
		putTxn(region, off, 7, []HomeRun{{Frag: 21, NFrags: 1}}, p3)
		want := bytes.Clone(img)
		copy(want[20*FragSize:], p1)

		if n := Replay(img, 0, jFrags); n != 1 {
			t.Fatalf("home run %+v: replayed %d txns, want 1 (stop at the bad one)", bad, n)
		}
		if !bytes.Equal(img, want) {
			t.Fatalf("home run %+v: image differs from the first transaction applied alone", bad)
		}
	}
}

// TestAllocFreeCommitPath pins the package's contract: every encoder on
// the transaction commit hot path writes into caller-provided buffers and
// allocates nothing — here the way the journaling scheme calls them, on one
// reused frame holding a compound transaction [begin | images | commit]
// whose length varies from one transaction to the next. The whole images
// gather in the frame first; every third transaction is trimmed the way the
// scheme does it, the changed spans moved down over the rest in place and
// the runs rewritten to name them.
func TestAllocFreeCommitPath(t *testing.T) {
	frame := make([]byte, 0, 16*FragSize)
	hdr := make([]byte, FragSize)
	whole := []HomeRun{{Frag: 100, NFrags: 2}, {Frag: 7, NFrags: 1}, {Frag: 300, NFrags: 8}}
	homes := make([]HomeRun, len(whole))
	seq := uint64(42)
	allocs := testing.AllocsPerRun(200, func() {
		members := homes[:copy(homes, whole[:1+seq%3])]
		frame = frame[:FragSize]
		for _, h := range members {
			frame = frame[:len(frame)+int(h.NFrags)*FragSize]
		}
		if seq%3 == 2 {
			// Keep the last fragment of every image.
			rd, wr := FragSize, FragSize
			for i, h := range members {
				rd += int(h.NFrags) * FragSize
				wr += copy(frame[wr:], frame[rd-FragSize:rd])
				members[i] = HomeRun{Frag: h.Frag + int64(h.NFrags) - 1, NFrags: 1}
			}
			frame = frame[:wr]
		}
		pf := EncodeBegin(frame, seq, members)
		if len(frame) != (1+int(pf))*FragSize {
			t.Fatalf("frame holds %d bytes of images for a %d-fragment payload", len(frame)-FragSize, pf)
		}
		frame = frame[:(2+int(pf))*FragSize]
		sum := Checksum(frame, frame[FragSize:(1+int(pf))*FragSize])
		EncodeCommit(frame[(1+int(pf))*FragSize:], seq, pf, sum)
		EncodeHeader(hdr, Header{TailSeq: seq, TailOff: 9})
		seq++
	})
	if allocs != 0 {
		t.Fatalf("commit encode path allocates %.1f per txn, want 0", allocs)
	}
}

// TestAllocFreeReplay: replay, run once per Journaling candidate by the
// crash checker, allocates nothing — here over a chain of three
// transactions, the last of them wrapped to offset 1.
func TestAllocFreeReplay(t *testing.T) {
	const jFrags = 12
	img := make([]byte, 24*FragSize)
	region := img[:jFrags*FragSize]
	EncodeHeader(img, Header{TailSeq: 5, TailOff: 4})
	off := putTxn(region, 4, 5, []HomeRun{{Frag: 20, NFrags: 1}}, bytes.Repeat([]byte{0x11}, FragSize))
	putTxn(region, off, 6, []HomeRun{{Frag: 21, NFrags: 1}, {Frag: 22, NFrags: 1}}, bytes.Repeat([]byte{0x22}, 2*FragSize))
	putTxn(region, 1, 7, []HomeRun{{Frag: 20, NFrags: 1}}, bytes.Repeat([]byte{0x33}, FragSize))
	n := 0
	allocs := testing.AllocsPerRun(100, func() { n = Replay(img, 0, jFrags) })
	if n != 3 {
		t.Fatalf("replayed %d txns, want 3", n)
	}
	if allocs != 0 {
		t.Fatalf("Replay allocates %.1f per call, want 0", allocs)
	}
}
