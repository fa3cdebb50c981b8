package segstore

import "vpm/internal/receipt"

// EncodeBlock is AppendBlock into a fresh slice.
func EncodeBlock(epoch uint64, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) []byte {
	return AppendBlock(nil, epoch, hop, samples, aggs)
}
