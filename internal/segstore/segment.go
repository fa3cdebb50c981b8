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
// epoch, appended in seal order:
//
//	magic:  "VPMSEG1\n"
//	block:  epoch[8] hop[4] nSamples[4] nAggs[4] payloadLen[4]
//	        payloadCRC[4] headerCRC[4]  payload[payloadLen]
//
// The payload is the receipt wire encoding (samples then aggregates,
// the canonical stream order — the same bytes a receipt.Arena encodes
// and a dissemination bundle carries). Both CRCs are CRC-32C
// (Castagnoli); headerCRC covers the 28 header bytes before it, so a
// torn or bit-rotted header is detected without trusting payloadLen.
// Everything is little-endian, like the receipt encoding.
//
// The format is append-only and self-delimiting: recovery scans
// blocks until the first incomplete or corrupt one and truncates
// there — the torn tail a crash mid-append leaves behind.

// segMagic begins every segment file.
var segMagic = [8]byte{'V', 'P', 'M', 'S', 'E', 'G', '1', '\n'}

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

// ErrTornTail reports a segment whose final block is incomplete — the
// signature of a crash mid-append. The valid prefix before the tear is
// intact and usable.
var ErrTornTail = errors.New("segstore: torn segment tail")

// Block is one decoded record block: one HOP's receipts for one epoch.
type Block struct {
	Epoch   uint64
	HOP     receipt.HOPID
	Samples []receipt.SampleReceipt
	Aggs    []receipt.AggReceipt
}

// AppendBlock appends the canonical block encoding for one HOP's
// sealed epoch to dst and returns the extended slice. The payload is
// encoded exactly as receipt.Arena.Encode would: samples then
// aggregates.
func AppendBlock(dst []byte, epoch uint64, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) []byte {
	payloadLen := 0
	for _, r := range samples {
		payloadLen += r.WireSize()
	}
	for _, r := range aggs {
		payloadLen += r.WireSize()
	}
	start := len(dst)
	var hdr [blockHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], epoch)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(hop))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(samples)))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(aggs)))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(payloadLen))
	dst = append(dst, hdr[:]...)
	for _, r := range samples {
		dst = r.AppendBinary(dst)
	}
	for _, r := range aggs {
		dst = r.AppendBinary(dst)
	}
	payload := dst[start+blockHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start+24:start+28], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(dst[start+28:start+32], crc32.Checksum(dst[start:start+28], crcTable))
	return dst
}

// EncodeBlock is AppendBlock into a fresh slice.
func EncodeBlock(epoch uint64, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) []byte {
	return AppendBlock(nil, epoch, hop, samples, aggs)
}

// blockHeader is a block's fixed header, decoded.
type blockHeader struct {
	epoch           uint64
	hop             receipt.HOPID
	nSamples, nAggs uint32
}

// nextBlock checks the block at the head of b against both of its
// checksums and returns its header and payload. A clean truncation
// (fewer bytes than the header or payload promise, with the present
// prefix intact) returns ErrTornTail; a checksum failure returns
// ErrCorruptSegment.
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
		return h, nil, fmt.Errorf("%w: block payload checksum", ErrCorruptSegment)
	}
	return h, payload, nil
}

// decodeReceipts parses a checksummed block payload into its receipts;
// anything but exactly the declared samples then aggregates is
// ErrCorruptSegment.
func decodeReceipts(h blockHeader, payload []byte) (Block, error) {
	blk := Block{Epoch: h.epoch, HOP: h.hop}
	var err error
	if blk.Samples, blk.Aggs, payload, err = receipt.DecodeReceipts(payload, h.nSamples, h.nAggs); err != nil {
		return blk, fmt.Errorf("%w: %v", ErrCorruptSegment, err)
	}
	if len(payload) != 0 {
		return blk, fmt.Errorf("%w: %d payload bytes beyond the declared receipts", ErrCorruptSegment, len(payload))
	}
	return blk, nil
}

// scanBlocks walks a segment image block by block, handing each block
// that passes its checksums to each. It returns the length of the
// prefix each accepted (magic included — the truncation point for a
// torn file) and the error that stopped the walk: nil for a clean end,
// ErrTornTail for an incomplete final block, ErrCorruptSegment
// (wrapped) for a checksum failure, or whatever each returned.
func scanBlocks(data []byte, each func(h blockHeader, payload []byte) error) (int, error) {
	if len(data) < len(segMagic) {
		return 0, fmt.Errorf("%w: short magic", ErrTornTail)
	}
	if [8]byte(data[:8]) != segMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorruptSegment)
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

// ScanSegment decodes a segment image block by block. It returns the
// decoded blocks of the valid prefix, the prefix's length in bytes
// (magic included — the truncation point for a torn file), and the
// error that stopped the scan: nil for a clean end, ErrTornTail for an
// incomplete final block, ErrCorruptSegment (wrapped) for checksum or
// decode failures. Malformed input of any shape returns; it never
// panics (FuzzDecodeSegment).
func ScanSegment(data []byte) ([]Block, int, error) {
	var blocks []Block
	valid, err := scanBlocks(data, func(h blockHeader, payload []byte) error {
		blk, err := decodeReceipts(h, payload)
		if err == nil {
			blocks = append(blocks, blk)
		}
		return err
	})
	return blocks, valid, err
}
