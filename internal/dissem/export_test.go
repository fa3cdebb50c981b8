package dissem

// The in-package fixtures that the external tests (tamper_test.go)
// share.
var (
	DissemWorld   = dissemWorld
	SampleBundle  = sampleBundle
	HandoffBundle = handoffBundle
	SeedOf        = seedOf
)

// CorruptSig is a tamper that breaks the signature of every bundle of
// one epoch.
func CorruptSig(epoch uint64) BundleTamper { return corruptSigTamper{epoch: epoch} }
