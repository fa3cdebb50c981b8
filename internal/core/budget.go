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
// It is the measured 4.66 plus about 10 % headroom. The same stream
// cost 73.9 when a store was rebuilt per target epoch, 27.9 once the ±1
// evidence view became a window over per-segment indices, 11.9 once
// the §6 join and the delay estimates reused the verifier's scratch and
// each epoch's verdicts were cut from one slab, and 4.66 since each
// sealed (HOP, epoch) is indexed from one slab per kind instead of about
// five objects per receipt. What is left is mostly the route plans the
// benchmark's fresh verifier builds once per key, and the parts a report
// keeps: its delay estimates and copied loss pairs.
const VerifyAllocsPerKeyEpochBudget = 5.1

// SequentialVerifyAllocsPerKeyEpochBudget is VerifyAllocsPerKeyEpochBudget
// with the SPRT arm on (VerifierConfig.Sequential): the same stream,
// with every detector created once per pass, since each pass is a fresh
// verifier (BenchmarkVerifyEpochMeshSequential;
// TestSequentialVerifyAllocsWithinBudget asserts it). It is the measured
// 4.77 plus about 10 % (11.99 before the seal index was cut from slabs).
// The arm cost 32.0 when every feed looked its
// detector up by a Scope formatted from the key, each detector was four
// objects and its trajectory a ring grown per epoch, and each check
// allocated its evidence streams; detectors are now handles resolved
// once per (key, link) and cut from slabs, and the evidence streams are
// kernel scratch.
const SequentialVerifyAllocsPerKeyEpochBudget = 5.2
