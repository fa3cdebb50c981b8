package main

import "strings"

// metricDef names one reported number. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json lists the same names and
// units (TestBenchmarkJSONMatchesCode keeps them in step).
type metricDef struct {
	name, unit string
	// better is the direction that counts as an improvement; for a
	// plain count of work done it says which way less work lies.
	better string
}

// endToEnd are the numbers a user of the system sees; every one is
// defined on every workload and never zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pkts_per_s", "1/s", "higher"},
	{"seal_to_verdict_ms_p50", "ms", "lower"},
	{"cpu_us_per_pkt", "us", "lower"},
	{"live_heap_mb_max", "MB", "lower"},
	{"wire_bytes_per_pkt", "B", "lower"},
}

// perLayer are the numbers of single layers (layer = package), all
// derived from a traced pass. A metric a workload never reaches is 0.
var perLayer = []metricDef{
	{"trace.gen_ns_per_pkt", "ns", "lower"},
	{"netsim.sim_ns_per_obs", "ns", "lower"},
	{"netsim.busy_s", "s", "lower"},
	{"netsim.obs", "count", "higher"},
	{"core.collect.ns_per_obs", "ns", "lower"},
	{"core.collect.busy_s", "s", "lower"},
	{"core.collect.obs", "count", "higher"},
	{"core.collect.allocs_per_obs", "count", "lower"},
	{"core.collect.unclassified", "count", "lower"},
	{"dissem.publish_us_per_bundle", "us", "lower"},
	{"dissem.publish_busy_s", "s", "lower"},
	{"dissem.bundles", "count", "lower"},
	{"dissem.fetch_us_per_bundle", "us", "lower"},
	{"dissem.fetch_busy_s", "s", "lower"},
	{"dissem.wire_bytes", "B", "lower"},
	{"dissem.receipts_per_bundle", "count", "higher"},
	{"core.window.ingest_us_per_bundle", "us", "lower"},
	{"core.window.ingest_busy_s", "s", "lower"},
	{"core.window.receipts", "count", "lower"},
	{"core.window.evict_busy_s", "s", "lower"},
	{"core.window.segments_max", "count", "lower"},
	{"core.verify.us_per_key_epoch", "us", "lower"},
	{"core.verify.us_per_link_check", "us", "lower"},
	{"core.verify.busy_s", "s", "lower"},
	{"core.verify.key_epochs", "count", "higher"},
	{"core.verify.link_checks", "count", "higher"},
	{"core.verify.matched_samples", "count", "higher"},
	{"core.verify.violations", "count", "lower"},
	{"core.verify.false_positives", "count", "lower"},
	{"core.verify.allocs_per_key_epoch", "count", "lower"},
	{"core.verify.terminal_flush_s", "s", "lower"},
	{"seqdetect.verdicts", "count", "higher"},
	{"seqdetect.first_verdict_epoch", "count", "lower"},
	{"segstore.append_us_per_hop_epoch", "us", "lower"},
	{"segstore.seal_ms_per_epoch", "ms", "lower"},
	{"segstore.put_report_ms_per_epoch", "ms", "lower"},
	{"segstore.busy_s", "s", "lower"},
	{"segstore.bytes_on_disk", "B", "lower"},
	{"segstore.recover_ms", "ms", "lower"},
	{"segstore.query_us_p50", "us", "lower"},
	{"fleet.build_s", "s", "lower"},
	{"fleet.collect_s", "s", "lower"},
	{"fleet.verify_s", "s", "lower"},
	{"fleet.verify_us_per_key_epoch", "us", "lower"},
	{"fleet.shard_skew", "ratio", "lower"},
	{"fleet.http_requests", "count", "lower"},
	{"fleet.http_body_bytes", "B", "lower"},
	{"fleet.merge_s", "s", "lower"},
	{"fleet.merge_us_per_key_epoch", "us", "lower"},
	{"runtime.allocs_per_pkt", "count", "lower"},
	{"runtime.alloc_bytes_per_pkt", "B", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_pause_ms_max", "ms", "lower"},
	{"runtime.sys_cpu_frac", "ratio", "lower"},
	{"runtime.rss_peak_mb", "MB", "lower"},
	{"harness.machine_speed", "ratio", "higher"},
	{"harness.unattributed_frac", "ratio", "lower"},
	{"harness.trace_overhead_frac", "ratio", "lower"},
	{"harness.epoch_service_ms_p50", "ms", "lower"},
	{"harness.seal_to_verdict_ms_tail", "ms", "lower"},
	{"harness.seal_to_verdict_tail_pct", "%", "higher"},
	{"harness.epochs", "count", "higher"},
	{"harness.input_mb", "MB", "lower"},
	{"harness.check_s", "s", "lower"},
}

// outcome is one pass reduced to what is reported.
type outcome struct {
	fingerprint string
	attempted   int64
	failed      int64
	failures    []string
	timedNS     int64
	checkS      float64 // wall spent in the output check
	values      map[string]float64
	spans       []span
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unattributedNS is the timed wall that no layer span accounts for:
// what lies outside every root span, plus the self time of the
// harness's own spans.
func unattributedNS(timedNS int64, spans []span, self []int64) int64 {
	rest := timedNS
	for i, s := range spans {
		if s.Parent < 0 {
			rest -= s.End - s.Start
		}
		if strings.HasPrefix(s.Name, "harness.") {
			rest += self[i]
		}
	}
	return rest
}

func (r *inprocRun) endToEnd() map[string]float64 {
	pkts := float64(r.pkts)
	wallNS := steadyNS(median(r.serviceMS)*1e6, len(r.serviceMS), r.tailWallNS)
	cpuNS := steadyNS(median(r.iterCPUNS), len(r.iterCPUNS), r.tailCPUNS)
	return map[string]float64{
		"setup_s":                float64(r.setupNS) / 1e9 * median(r.speeds),
		"pkts_per_s":             ratio(pkts, wallNS/1e9),
		"seal_to_verdict_ms_p50": median(r.sealToVerdictMS),
		"cpu_us_per_pkt":         ratio(cpuNS/1e3, pkts),
		"live_heap_mb_max":       float64(r.heapMax) / (1 << 20),
		"wire_bytes_per_pkt":     ratio(float64(r.wireBytes), pkts),
	}
}

// layers derives the per-layer numbers of a traced pass.
func (r *inprocRun) layers() map[string]float64 {
	self := selfTimes(r.spans)
	tot := layerTotals(r.spans, self)
	busy := func(name string) float64 { return float64(tot[name].selfNS) }
	per := func(name string, n float64) float64 { return ratio(busy(name), n) }
	pkts, obs, bundles := float64(r.pkts), float64(r.obs), float64(r.bundles)
	keyEpochs := float64(r.keyEpochs)

	terminalVerify := int64(0)
	for i, s := range r.spans {
		if s.Name == "core.verify" && int(s.Epoch) == r.epochs+warmupEpochs {
			terminalVerify += self[i]
		}
	}
	segBusy := busy("segstore.append") + busy("segstore.seal") + busy("segstore.put_report") +
		busy("segstore.recover") + busy("segstore.query")
	tailP, tail, _ := tailPercentile(sortedCopy(r.sealToVerdictMS))

	return map[string]float64{
		"trace.gen_ns_per_pkt":  ratio(float64(r.genNS), pkts),
		"netsim.sim_ns_per_obs": ratio(float64(r.simNS), obs),
		"netsim.busy_s":         float64(r.simNS) / 1e9,
		"netsim.obs":            obs,

		"core.collect.ns_per_obs":     per("core.collect", obs),
		"core.collect.busy_s":         busy("core.collect") / 1e9,
		"core.collect.obs":            obs,
		"core.collect.allocs_per_obs": ratio(float64(r.collectAllocs), obs),
		"core.collect.unclassified":   float64(r.unclassified),

		"dissem.publish_us_per_bundle": per("dissem.publish", bundles) / 1e3,
		"dissem.publish_busy_s":        busy("dissem.publish") / 1e9,
		"dissem.bundles":               bundles,
		"dissem.fetch_us_per_bundle":   per("dissem.fetch", bundles) / 1e3,
		"dissem.fetch_busy_s":          busy("dissem.fetch") / 1e9,
		"dissem.wire_bytes":            float64(r.wireBytes),
		"dissem.receipts_per_bundle":   ratio(float64(r.receipts), bundles),

		"core.window.ingest_us_per_bundle": per("core.window.ingest", bundles) / 1e3,
		"core.window.ingest_busy_s":        busy("core.window.ingest") / 1e9,
		"core.window.receipts":             float64(r.receipts),
		"core.window.evict_busy_s":         busy("core.window.evict") / 1e9,
		"core.window.segments_max":         float64(r.segmentsMax),

		"core.verify.us_per_key_epoch":     per("core.verify", keyEpochs) / 1e3,
		"core.verify.us_per_link_check":    per("core.verify", float64(r.linkChecks)) / 1e3,
		"core.verify.busy_s":               busy("core.verify") / 1e9,
		"core.verify.key_epochs":           keyEpochs,
		"core.verify.link_checks":          float64(r.linkChecks),
		"core.verify.matched_samples":      float64(r.matched),
		"core.verify.violations":           float64(r.violations),
		"core.verify.false_positives":      float64(r.falsePositives),
		"core.verify.allocs_per_key_epoch": ratio(float64(r.verifyAllocs), keyEpochs),
		"core.verify.terminal_flush_s":     float64(terminalVerify) / 1e9,

		"seqdetect.verdicts":            float64(r.seqVerdicts),
		"seqdetect.first_verdict_epoch": float64(max(r.firstSeqEpoch, 0)),

		"segstore.append_us_per_hop_epoch": per("segstore.append", float64(tot["segstore.append"].n)) / 1e3,
		"segstore.seal_ms_per_epoch":       per("segstore.seal", float64(tot["segstore.seal"].n)) / 1e6,
		"segstore.put_report_ms_per_epoch": per("segstore.put_report", float64(tot["segstore.put_report"].n)) / 1e6,
		"segstore.busy_s":                  segBusy / 1e9,
		"segstore.bytes_on_disk":           float64(r.diskBytes),
		"segstore.recover_ms":              busy("segstore.recover") / 1e6,
		"segstore.query_us_p50":            median(r.queryUS),

		"runtime.allocs_per_pkt":      ratio(float64(r.allocObjects), pkts),
		"runtime.alloc_bytes_per_pkt": ratio(float64(r.allocBytes), pkts),
		"runtime.gc_cpu_frac":         ratio(r.gcCPUSec, float64(r.cpuNS)/1e9),
		"runtime.gc_pause_ms_max":     r.gcPauseMaxMS,
		"runtime.sys_cpu_frac":        ratio(float64(r.sysNS), float64(r.cpuNS)),
		"runtime.rss_peak_mb":         r.rssPeakMB,

		"harness.machine_speed":            median(r.speeds),
		"harness.unattributed_frac":        ratio(float64(unattributedNS(r.timedNS, r.spans, self)), float64(r.timedNS)),
		"harness.epoch_service_ms_p50":     median(r.serviceMS),
		"harness.seal_to_verdict_ms_tail":  tail,
		"harness.seal_to_verdict_tail_pct": tailP * 100,
		"harness.epochs":                   float64(r.epochs),
		"harness.input_mb":                 float64(r.inputBytes) / (1 << 20),
	}
}

func (r *fleetRun) endToEnd() map[string]float64 {
	pkts := float64(r.pkts)
	// One speed for the repetition: its three phases are seconds apart.
	speed := median(r.speeds)
	return map[string]float64{
		"setup_s":                float64(r.setupNS) / 1e9 * speed,
		"pkts_per_s":             ratio(pkts, float64(r.timedNS)/1e9*speed),
		"seal_to_verdict_ms_p50": ratio(float64(r.verifyNS)/1e6*speed, float64(r.epochs)),
		"cpu_us_per_pkt":         ratio(float64(r.cpuNS)/1e3*speed, pkts),
		"live_heap_mb_max":       float64(r.heapMax) / (1 << 20),
		"wire_bytes_per_pkt":     ratio(float64(r.bodyBytes), pkts),
	}
}

func (r *fleetRun) layers() map[string]float64 {
	pkts, keyEpochs := float64(r.pkts), float64(r.keyEpochs)
	slowest, sum := int64(0), int64(0)
	for _, ns := range r.shardNS {
		slowest = max(slowest, ns)
		sum += ns
	}
	return map[string]float64{
		"dissem.wire_bytes": float64(r.bodyBytes),

		"core.verify.key_epochs":      keyEpochs,
		"core.verify.link_checks":     float64(r.linkChecks),
		"core.verify.matched_samples": float64(r.matched),
		"core.verify.violations":      float64(r.violations),

		"fleet.build_s":                 float64(r.buildNS) / 1e9,
		"fleet.collect_s":               float64(r.collectNS) / 1e9,
		"fleet.verify_s":                float64(r.verifyNS) / 1e9,
		"fleet.verify_us_per_key_epoch": ratio(float64(r.verifyNS)/1e3, keyEpochs),
		"fleet.shard_skew":              ratio(float64(slowest), float64(sum)/fleetShards),
		"fleet.http_requests":           float64(r.requests),
		"fleet.http_body_bytes":         float64(r.bodyBytes),
		"fleet.merge_s":                 float64(r.mergeNS) / 1e9,
		"fleet.merge_us_per_key_epoch":  ratio(float64(r.mergeNS)/1e3, keyEpochs),

		"runtime.allocs_per_pkt":      ratio(float64(r.allocObjects), pkts),
		"runtime.alloc_bytes_per_pkt": ratio(float64(r.allocBytes), pkts),
		"runtime.gc_cpu_frac":         ratio(r.gcCPUSec, float64(r.cpuNS)/1e9),
		"runtime.gc_pause_ms_max":     r.gcPauseMaxMS,
		"runtime.sys_cpu_frac":        ratio(float64(r.sysNS), float64(r.cpuNS)),
		"runtime.rss_peak_mb":         r.rssPeakMB,

		"harness.machine_speed":        median(r.speeds),
		"harness.unattributed_frac":    ratio(float64(unattributedNS(r.timedNS, r.spans, selfTimes(r.spans))), float64(r.timedNS)),
		"harness.epoch_service_ms_p50": ratio(float64(r.timedNS)/1e6, float64(r.epochs)),
		"harness.epochs":               float64(r.epochs),
	}
}
