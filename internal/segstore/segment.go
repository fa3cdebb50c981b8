package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"vpm/internal/receipt"
)

// On-disk segment format. A segment file is the 8-byte magic followed
// by zero or more record blocks, each one HOP's receipts for one
// epoch, appended in seal order, and after the sealed ones the epoch's
// verdict report blocks:
//
//	magic:  "VPMSEG2\n"
//	block:  epoch[8] hop[4] nSamples[4] nAggs[4] payloadLen[4]
//	        payloadCRC[4] headerCRC[4]  payload[payloadLen]
//
// A receipt block's payload is the receipt wire encoding (samples then
// aggregates, the canonical stream order — the same bytes a
// dissemination bundle carries). A report block follows the sealed
// length the manifest committed; its payload is the report as filed,
// and its hop and counts are zero. Both CRCs are CRC-32C (Castagnoli);
// headerCRC covers the 28 header bytes before it, so a torn or
// bit-rotted header is detected without trusting payloadLen. The
// header is little-endian, like the receipt encoding's fixed-width
// fields.
//
// The magic's digit is the format version, and it moves with the
// receipt layout: version 1 held fixed-width receipts, version 2 holds
// the compact ones. A file of another version is refused with
// ErrSegmentVersion, never read as corrupt and never repaired.
//
// The format is append-only and self-delimiting: a torn tail — what a
// crash mid-append leaves behind — ends at the first incomplete block.
// Recovery truncates a report tail at its first torn block, or the first
// whose header fails its checksum, and skips a block whose payload alone
// fails (Store.indexReports).

// segMagic begins every segment file.
var segMagic = [8]byte{'V', 'P', 'M', 'S', 'E', 'G', '2', '\n'}

// blockHeaderLen is the fixed block header size.
const blockHeaderLen = 32

// crcTable is the Castagnoli polynomial table (hardware-accelerated
// on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptSegment reports malformed segment bytes: a bad magic, a
// header or payload failing its checksum, or receipts that do not
// decode. A truncated (torn) tail is reported as ErrTornTail instead —
// recovery treats the two differently.
var ErrCorruptSegment = errors.New("segstore: corrupt segment")

// ErrSegmentVersion reports a segment file written in another format
// version — by another release, whose receipts this one cannot read.
// It is not corruption: the store refuses to open and touches nothing.
var ErrSegmentVersion = errors.New("segstore: segment format version")

// ErrTornTail reports a segment whose final block is incomplete — the
// signature of a crash mid-append. The valid prefix before the tear is
// intact and usable.
var ErrTornTail = errors.New("segstore: torn segment tail")

// AppendBlock appends the canonical block encoding for one HOP's
// sealed epoch to dst and returns the extended slice. The payload is
// each receipt's AppendBinary encoding: samples then aggregates. The
// header's payload length and CRC are filled in once the payload is
// written.
func AppendBlock(dst []byte, epoch uint64, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) []byte {
	start := len(dst)
	var hdr [blockHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], epoch)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(hop))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(samples)))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(aggs)))
	dst = append(dst, hdr[:]...)
	for _, r := range samples {
		dst = r.AppendBinary(dst)
	}
	for _, r := range aggs {
		dst = r.AppendBinary(dst)
	}
	return finishBlock(dst, start)
}

// appendReportBlock appends a report block for epoch holding payload
// to dst and returns the extended slice.
func appendReportBlock(dst []byte, epoch uint64, payload []byte) []byte {
	start := len(dst)
	var hdr [blockHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], epoch)
	return finishBlock(append(append(dst, hdr[:]...), payload...), start)
}

// finishBlock fills in the payload length and both checksums of the
// block that starts at dst[start] and runs to the end of dst.
func finishBlock(dst []byte, start int) []byte {
	payload := dst[start+blockHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start+20:start+24], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+24:start+28], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(dst[start+28:start+32], crc32.Checksum(dst[start:start+28], crcTable))
	return dst
}

// blockHeader is a block's fixed header, decoded.
type blockHeader struct {
	epoch           uint64
	hop             receipt.HOPID
	nSamples, nAggs uint32
}

// errPayloadChecksum is nextBlock's error for a block whose header
// checks out and whose payload does not.
var errPayloadChecksum = fmt.Errorf("%w: block payload checksum", ErrCorruptSegment)

// nextBlock checks the block at the head of b against both of its
// checksums and returns its header and payload. A clean truncation
// (fewer bytes than the header or payload promise, with the present
// prefix intact) returns ErrTornTail; a checksum failure returns
// ErrCorruptSegment — errPayloadChecksum, beside the header and the
// payload as read, when only the payload's fails.
func nextBlock(b []byte) (blockHeader, []byte, error) {
	var h blockHeader
	if len(b) < blockHeaderLen {
		return h, nil, ErrTornTail
	}
	hdr := b[:blockHeaderLen]
	if crc32.Checksum(hdr[:28], crcTable) != binary.LittleEndian.Uint32(hdr[28:32]) {
		// An incomplete header overwritten by nothing is
		// indistinguishable from a corrupt one; either way the block —
		// and everything after it — is unusable. Report the stronger
		// "torn" only when the header itself was short.
		return h, nil, fmt.Errorf("%w: block header checksum", ErrCorruptSegment)
	}
	h.epoch = binary.LittleEndian.Uint64(hdr[0:8])
	h.hop = receipt.HOPID(binary.LittleEndian.Uint32(hdr[8:12]))
	h.nSamples = binary.LittleEndian.Uint32(hdr[12:16])
	h.nAggs = binary.LittleEndian.Uint32(hdr[16:20])
	payloadLen := binary.LittleEndian.Uint32(hdr[20:24])
	rest := b[blockHeaderLen:]
	if uint64(len(rest)) < uint64(payloadLen) {
		return h, nil, ErrTornTail
	}
	payload := rest[:payloadLen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[24:28]) {
		return h, payload, errPayloadChecksum
	}
	return h, payload, nil
}

// scanBlocks walks a segment image block by block, handing each block
// that passes its checksums to each. It returns the length of the
// prefix each accepted (magic included — the truncation point for a
// torn file) and the error that stopped the walk: nil for a clean end,
// ErrTornTail for an incomplete final block, ErrSegmentVersion for
// another format version, ErrCorruptSegment (wrapped) for a checksum
// failure, or whatever each returned.
func scanBlocks(data []byte, each func(h blockHeader, payload []byte) error) (int, error) {
	if err := checkMagic(data); err != nil {
		return 0, err
	}
	valid := len(segMagic)
	for valid < len(data) {
		h, payload, err := nextBlock(data[valid:])
		if err != nil {
			return valid, err
		}
		if err := each(h, payload); err != nil {
			return valid, err
		}
		valid += blockHeaderLen + len(payload)
	}
	return valid, nil
}

// checkMagic checks a segment image's magic: ErrTornTail when it is
// short, ErrSegmentVersion when it names another format version,
// ErrCorruptSegment when it is no segment magic at all.
func checkMagic(data []byte) error {
	if len(data) < len(segMagic) {
		return fmt.Errorf("%w: short magic", ErrTornTail)
	}
	magic := [8]byte(data[:8])
	switch {
	case magic == segMagic:
		return nil
	case string(magic[:6]) == "VPMSEG" && magic[7] == '\n':
		return fmt.Errorf("%w: %q, this release reads %q", ErrSegmentVersion, magic[:7], segMagic[:7])
	}
	return fmt.Errorf("%w: bad magic", ErrCorruptSegment)
}
