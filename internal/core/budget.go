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
// report over the whole of ingest → index at seal → VerifyEpoch →
// evict, on the root package's recorded Clos stream
// (BenchmarkVerifyEpochMesh; TestVerifyAllocsWithinBudget asserts it).
// It is the measured 11.9 plus about 10 % headroom. The same stream
// cost 73.9 when a store was rebuilt per target epoch, 27.9 once the ±1
// evidence view became a window over per-segment indices, and 11.9
// since the §6 join and the delay estimates reuse the verifier's
// scratch and each epoch's verdicts are cut from one slab. What is
// left is indexing each sealed (HOP, epoch) at SealHOP (~70 %), the
// route plans the benchmark's fresh verifier builds once per key
// (~18 %), and the parts a report keeps: its delay estimates and
// copied loss pairs.
const VerifyAllocsPerKeyEpochBudget = 13

// SequentialVerifyAllocsPerKeyEpochBudget is VerifyAllocsPerKeyEpochBudget
// with the SPRT arm on (VerifierConfig.Sequential): the same stream,
// with every detector created once per pass, since each pass is a fresh
// verifier (BenchmarkVerifyEpochMeshSequential;
// TestSequentialVerifyAllocsWithinBudget asserts it). It is the measured
// 11.99 plus about 10 %. The arm cost 32.0 when every feed looked its
// detector up by a Scope formatted from the key, each detector was four
// objects and its trajectory a ring grown per epoch, and each check
// allocated its evidence streams; detectors are now handles resolved
// once per (key, link) and cut from slabs, and the evidence streams are
// kernel scratch.
const SequentialVerifyAllocsPerKeyEpochBudget = 13.2
