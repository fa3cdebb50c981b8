package fleet

// BenchRow is one verifier-tier width's result in the supervisor's
// sweep, as vpm-fleet run -json emits it. Fingerprint is the
// sha256-based digest of the merged verdict stream (Fingerprint); equal
// fingerprints across widths is the byte-identity acceptance gate. The
// timing fields describe that one run; the fleet's speed numbers come
// from `go run ./bench -workload fleet-http`.
type BenchRow struct {
	Procs       int     `json:"procs"`
	Domains     int     `json:"domains"`
	Keys        int     `json:"keys"`
	Packets     int64   `json:"packets"`
	Epochs      int     `json:"epochs"`
	WallMS      float64 `json:"wall_ms"`
	KeysPerSec  float64 `json:"keys_per_sec"`
	Fingerprint string  `json:"fingerprint"`
}
