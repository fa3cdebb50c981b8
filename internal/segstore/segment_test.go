package segstore

import (
	"fmt"

	"vpm/internal/receipt"
)

// Block is one decoded record block: one HOP's receipts for one epoch.
type Block struct {
	Epoch   uint64
	HOP     receipt.HOPID
	Samples []receipt.SampleReceipt
	Aggs    []receipt.AggReceipt
}

// EncodeBlock is AppendBlock into a fresh slice.
func EncodeBlock(epoch uint64, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) []byte {
	return AppendBlock(nil, epoch, hop, samples, aggs)
}

// ScanSegment decodes a segment image block by block. It returns the
// decoded blocks of the valid prefix, the prefix's length in bytes
// (magic included — the truncation point for a torn file), and the
// error that stopped the scan: nil for a clean end, ErrTornTail for an
// incomplete final block, ErrSegmentVersion for another format
// version, ErrCorruptSegment (wrapped) for checksum or decode
// failures. Malformed input of any shape returns; it never panics
// (FuzzDecodeSegment).
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
