// Package jlog defines the on-disk wrapping journal format used by the
// Journaling ordering scheme and replayed by fsck recovery.
//
// The journal occupies a reserved fragment region [JournalStart,
// JournalStart+JournalFrags) between the fragment bitmap and the data
// region (see ffs.Format). Region-relative fragment 0 holds the durable
// header; transactions are laid out at offsets >= 1 as
//
//	[ begin frag | payload frags ... | commit frag ]
//
// A transaction that does not fit before the region end wraps to offset 1
// (transactions never straddle the region boundary). All deciding fields
// of every record live in sector 0 of their fragment, so a torn write can
// never leave a half-valid record: the commit either landed (sector 0
// carries the magic, sequence number, and checksum) or it did not.
//
// Replay trusts only the chain: starting from the durable header's
// (tailSeq, tailOff), each transaction must carry the expected sequence
// number and a commit whose CRC32 matches the begin sector and payload
// bytes, and home runs that lie inside the image. The first failure stops
// the scan — later transactions cannot be durable because each commit
// write depends on its predecessor.
//
// Every encoder writes into a caller-provided buffer and allocates
// nothing; the commit hot path is covered by an AllocsPerRun == 0 guard.
package jlog

import (
	"encoding/binary"
	"hash/crc32"
)

// Geometry constants (mirroring cache/ffs; jlog stays dependency-free so
// both fsck and ordering can import it).
const (
	FragSize   = 1024
	SectorSize = 512
)

// Record magics ("MJ" = metaupdate journal).
const (
	HeaderMagic uint32 = 0x4d4a4801 // "MJH" 1
	BeginMagic  uint32 = 0x4d4a4201 // "MJB" 1
	CommitMagic uint32 = 0x4d4a4301 // "MJC" 1
)

// MaxHomes is the largest number of home runs one transaction can carry:
// the begin record's fixed header is 20 bytes and each home run costs 12,
// all confined to sector 0. The hooks journal at most three buffers per
// transaction, so the cap is generous.
const MaxHomes = (SectorSize - beginFixed) / homeSize

const (
	headerSize = 20 // magic | tailSeq | tailOff | crc
	beginFixed = 20 // magic | seq | nbufs | payloadFrags
	homeSize   = 12 // homeFrag int64 | nfrags uint32
	commitSize = 20 // magic | seq | payloadFrags | crc
)

// Header is the durable journal header in region fragment 0. It is
// rewritten synchronously whenever the tail advances past reclaimed space,
// never as part of normal transaction commit.
type Header struct {
	TailSeq uint64 // sequence number replay expects at TailOff
	TailOff int32  // region-relative fragment of the oldest live txn
}

// HomeRun names one journaled buffer image: the home fragment it belongs
// at and its length in fragments. Payload images are concatenated in home
// order.
type HomeRun struct {
	Frag   int64
	NFrags int32
}

// EncodeHeader writes h into dst (at least SectorSize bytes). Zero-alloc.
func EncodeHeader(dst []byte, h Header) {
	le := binary.LittleEndian
	le.PutUint32(dst[0:], HeaderMagic)
	le.PutUint64(dst[4:], h.TailSeq)
	le.PutUint32(dst[12:], uint32(h.TailOff))
	le.PutUint32(dst[16:], crc32.ChecksumIEEE(dst[0:16]))
	clearTail(dst[headerSize:SectorSize])
}

// DecodeHeader parses a header sector; ok is false when the magic or CRC
// does not match (unformatted or corrupted journal).
func DecodeHeader(src []byte) (Header, bool) {
	le := binary.LittleEndian
	if len(src) < headerSize || le.Uint32(src[0:]) != HeaderMagic {
		return Header{}, false
	}
	if crc32.ChecksumIEEE(src[0:16]) != le.Uint32(src[16:]) {
		return Header{}, false
	}
	return Header{TailSeq: le.Uint64(src[4:]), TailOff: int32(le.Uint32(src[12:]))}, true
}

// EncodeBegin writes the begin record for (seq, homes) into dst (at least
// SectorSize bytes) and returns the payload size in fragments. Zero-alloc.
func EncodeBegin(dst []byte, seq uint64, homes []HomeRun) int32 {
	if len(homes) > MaxHomes {
		panic("jlog: too many home runs for one transaction")
	}
	le := binary.LittleEndian
	le.PutUint32(dst[0:], BeginMagic)
	le.PutUint64(dst[4:], seq)
	le.PutUint32(dst[12:], uint32(len(homes)))
	var payload int32
	off := beginFixed
	for _, h := range homes {
		le.PutUint64(dst[off:], uint64(h.Frag))
		le.PutUint32(dst[off+8:], uint32(h.NFrags))
		off += homeSize
		payload += h.NFrags
	}
	le.PutUint32(dst[16:], uint32(payload))
	clearTail(dst[off:SectorSize])
	return payload
}

// DecodeBegin parses a begin sector, appending the home runs to homes (a
// reusable scratch slice). ok is false when the magic is absent or the
// record is malformed.
func DecodeBegin(src []byte, homes []HomeRun) (seq uint64, payloadFrags int32, out []HomeRun, ok bool) {
	le := binary.LittleEndian
	if len(src) < beginFixed || le.Uint32(src[0:]) != BeginMagic {
		return 0, 0, homes, false
	}
	seq = le.Uint64(src[4:])
	nbufs := int(le.Uint32(src[12:]))
	payloadFrags = int32(le.Uint32(src[16:]))
	if nbufs > MaxHomes || len(src) < beginFixed+nbufs*homeSize {
		return 0, 0, homes, false
	}
	var sum int32
	off := beginFixed
	for i := 0; i < nbufs; i++ {
		h := HomeRun{
			Frag:   int64(le.Uint64(src[off:])),
			NFrags: int32(le.Uint32(src[off+8:])),
		}
		if h.NFrags <= 0 || h.Frag < 0 {
			return 0, 0, homes, false
		}
		homes = append(homes, h)
		sum += h.NFrags
		off += homeSize
	}
	if sum != payloadFrags {
		return 0, 0, homes, false
	}
	return seq, payloadFrags, homes, true
}

// Checksum computes the commit checksum over the begin sector and the
// payload bytes. Zero-alloc.
func Checksum(beginSector, payload []byte) uint32 {
	sum := crc32.ChecksumIEEE(beginSector[:SectorSize])
	return crc32.Update(sum, crc32.IEEETable, payload)
}

// EncodeCommit writes the commit record into dst (at least SectorSize
// bytes). Zero-alloc.
func EncodeCommit(dst []byte, seq uint64, payloadFrags int32, sum uint32) {
	le := binary.LittleEndian
	le.PutUint32(dst[0:], CommitMagic)
	le.PutUint64(dst[4:], seq)
	le.PutUint32(dst[12:], uint32(payloadFrags))
	le.PutUint32(dst[16:], sum)
	clearTail(dst[commitSize:SectorSize])
}

// DecodeCommit parses a commit sector.
func DecodeCommit(src []byte) (seq uint64, payloadFrags int32, sum uint32, ok bool) {
	le := binary.LittleEndian
	if len(src) < commitSize || le.Uint32(src[0:]) != CommitMagic {
		return 0, 0, 0, false
	}
	return le.Uint64(src[4:]), int32(le.Uint32(src[12:])), le.Uint32(src[16:]), true
}

// TxnFrags returns the whole-region footprint of a transaction with the
// given payload size: begin + payload + commit.
func TxnFrags(payloadFrags int32) int32 { return payloadFrags + 2 }

func clearTail(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Replay scans the journal region of a crashed media image and applies
// every committed transaction's buffer images to their home fragments, in
// sequence order. It returns the number of transactions applied. The scan
// is read-only over the journal region (the header is not rewritten), so
// replaying an already-replayed image applies the same bytes again — a
// byte-level no-op.
//
// A first pass counts the committed transactions and a second applies them,
// both decoding into a stack scratch: a replay allocates nothing.
//
// journalStart/journalFrags come from the superblock; a zero-sized region
// means no journal (old images), and Replay applies nothing.
func Replay(img []byte, journalStart, journalFrags int32) int {
	if journalFrags < 2 {
		return 0
	}
	region := img[int64(journalStart)*FragSize : int64(journalStart+journalFrags)*FragSize]
	hdr, ok := DecodeHeader(region[:SectorSize])
	if !ok {
		return 0
	}
	var scratch [MaxHomes]HomeRun
	imgFrags := int64(len(img)) / FragSize
	// next returns the transaction numbered seq, at off or — the writer
	// wraps when one does not fit before the region end — at offset 1.
	next := func(off int32, seq uint64) (replayCand, bool) {
		cand, ok := replayOne(region, journalFrags, imgFrags, off, seq, scratch[:0])
		if !ok && off != 1 {
			cand, ok = replayOne(region, journalFrags, imgFrags, 1, seq, scratch[:0])
		}
		return cand, ok
	}
	n := 0
	for off := hdr.TailOff; ; n++ {
		cand, ok := next(off, hdr.TailSeq+uint64(n))
		if !ok {
			break
		}
		off = cand.next
	}
	off := hdr.TailOff
	for i := range n {
		t, _ := next(off, hdr.TailSeq+uint64(i))
		at := int64(0)
		for _, h := range t.homes {
			size := int64(h.NFrags) * FragSize
			copy(img[h.Frag*FragSize:], t.payload[at:at+size])
			at += size
		}
		off = t.next
	}
	return n
}

// replayCand is one validated transaction during the scan.
type replayCand struct {
	homes   []HomeRun
	payload []byte
	next    int32 // region-relative offset just past the commit frag
}

// replayOne validates the transaction at region-relative offset off with
// the expected sequence number. A home run that does not lie inside the
// image's imgFrags fragments makes the transaction invalid, as a bad
// checksum does: the checksum covers the begin record, so only a record
// the writer never wrote — or media corrupted past detection — names one.
// The payload slice aliases the image.
func replayOne(region []byte, journalFrags int32, imgFrags int64, off int32, want uint64, scratch []HomeRun) (replayCand, bool) {
	if off < 1 || off+2 > journalFrags {
		return replayCand{}, false
	}
	beginSector := region[int64(off)*FragSize : int64(off)*FragSize+SectorSize]
	seq, payloadFrags, homes, ok := DecodeBegin(beginSector, scratch)
	if !ok || seq != want {
		return replayCand{}, false
	}
	end := off + 1 + payloadFrags // commit frag offset
	if payloadFrags < 0 || end+1 > journalFrags {
		return replayCand{}, false
	}
	payload := region[int64(off+1)*FragSize : int64(end)*FragSize]
	commitSector := region[int64(end)*FragSize : int64(end)*FragSize+SectorSize]
	cseq, cpf, sum, ok := DecodeCommit(commitSector)
	if !ok || cseq != want || cpf != payloadFrags {
		return replayCand{}, false
	}
	if Checksum(beginSector, payload) != sum {
		return replayCand{}, false
	}
	for _, h := range homes {
		if h.Frag > imgFrags-int64(h.NFrags) {
			return replayCand{}, false
		}
	}
	return replayCand{homes: homes, payload: payload, next: end + 1}, true
}
