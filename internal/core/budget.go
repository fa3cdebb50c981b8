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
// Measured 28.2 when the ±1 evidence view became a window over
// per-segment indices; rebuilding a store per target epoch cost 73.9 on
// the same stream. Most of what is left is the §6 join (a map, the
// pairs, two AggTrans copies per pair) and the report itself.
const VerifyAllocsPerKeyEpochBudget = 31
