package core

// AllocsPerPktBudget is the documented steady-state allocation budget
// of the batch hot path: the CI zero-alloc gate (the root package's
// BenchmarkObserveBatch) and TestObserveBatchSteadyStateZeroAlloc
// fail when ObserveBatch exceeds it. The budget is not exactly zero
// because closing an aggregate (at the configured ~1e-5 cut rate)
// legitimately allocates its AggTrans window; per packet that is
// orders of magnitude below this ceiling.
const AllocsPerPktBudget = 0.001

// VerifyAllocsPerKeyEpochBudget is the allocation budget of the verify
// side on a mesh of mostly idle keys: heap objects per (key, route)
// report over the whole of ingest → seal → VerifyEpoch (which indexes
// each sealed epoch at its first view, on the verify workers) → evict,
// on the root package's recorded Clos stream
// (BenchmarkVerifyEpochMesh; TestVerifyAllocsWithinBudget asserts it).
// It is 4.66, measured when it was set, plus about 10 % headroom. The
// same stream cost 73.9 when a store was rebuilt per target epoch, 27.9
// once the ±1 evidence view became a window over per-segment indices,
// 11.9 once the §6 join and the delay estimates reused the verifier's
// scratch and each epoch's verdicts were cut from one slab, 4.66 once
// each sealed (HOP, epoch) was indexed from one slab per kind instead
// of about five objects per receipt, and 3.70 since an epoch's leaf is
// built as a few key partitions, each from one slab per kind, a key's
// HOPs are chained instead of listed, and each sealed delivery carries
// the list of its key runs until the leaf is built. What is left is
// mostly the route plans the benchmark's fresh verifier builds once per
// key, and the parts a report keeps: its delay estimates and copied
// loss pairs.
const VerifyAllocsPerKeyEpochBudget = 5.1

// SequentialVerifyAllocsPerKeyEpochBudget is VerifyAllocsPerKeyEpochBudget
// with the SPRT arm on (VerifierConfig.Sequential): the same stream,
// with every detector created once per pass, since each pass is a fresh
// verifier (BenchmarkVerifyEpochMeshSequential;
// TestSequentialVerifyAllocsWithinBudget asserts it). It is 4.77,
// measured when it was set, plus about 10 % (11.99 before the seal index
// was cut from slabs; 3.84 since the leaf is built in key partitions).
// The arm cost 32.0 when every feed looked its
// detector up by a Scope formatted from the key, each detector was four
// objects and its trajectory a ring grown per epoch, and each check
// allocated its evidence streams; detectors are now handles resolved
// once per (key, link) and cut from slabs, and the evidence streams are
// kernel scratch.
const SequentialVerifyAllocsPerKeyEpochBudget = 5.2
